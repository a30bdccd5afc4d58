/**
 * @file
 * One declarative flag table and one parse routine for every bench
 * and tool binary.
 *
 * A binary lists the flags it reads as rows: a name, a value
 * placeholder, a help string, a target whose type is the value kind,
 * and a range. parse() walks argv left to right, stores each value
 * into its row's target, and stops at `--help`, `--version` or the
 * first token it cannot take, which it classifies. It prints
 * nothing, so tests drive it directly; finish() turns the result
 * into output and an exit status (usage errors exit 2).
 */

#ifndef XUI_CLI_FLAGS_HH
#define XUI_CLI_FLAGS_HH

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"
#include "cli/number.hh"
#include "exec/sweep.hh"

namespace xui::cli
{

/** Why parse() stopped short (None: every value was stored). */
enum class Reject : std::uint8_t
{
    None,
    UnknownFlag,     ///< a "-..." token no row names
    MissingValue,    ///< argv ends at a value flag or a positional
    BadValue,        ///< a value the row's kind cannot read
    OutOfRange,      ///< a well-formed number outside the range
    ExtraPositional, ///< a bare token past the positionals
};

/** How a refused Reader value is worded. */
enum class Kind : std::uint8_t
{
    Number, ///< "--x needs <expect>, got 'v'"
    Choice, ///< "unknown --x 'v' (expected <expect>)"
    Custom, ///< "malformed --x 'v' (expected <expect>)"
};

/** A value only the row's own function can read. */
struct Reader
{
    /** Stores a valid value; false refuses it. */
    std::function<bool(const char *)> read;
    /** The accepted names, grammar or range, quoted in refusals. */
    std::string expect;
    Kind kind;
};

/** Lower bound of a real flag that must be strictly positive. */
inline constexpr double kPositive =
    std::numeric_limits<double>::denorm_min();

/**
 * One row. The target's type is the value kind: a bool is a switch
 * with no value, an unsigned or u64 takes a strict decimal, a double
 * a finite real, a string any text, and a Reader what it accepts.
 */
struct Flag
{
    const char *name;
    /** Usage placeholder; "FILE" makes a missing value "a file". */
    const char *metavar;
    const char *help;
    std::variant<bool *, unsigned *, std::uint64_t *, double *,
                 std::string *, Reader>
        target;
    /** A number outside [lo, hi] is OutOfRange. */
    double lo = 0, hi = HUGE_VAL;
};

struct Table
{
    std::vector<Flag> flags;
    /** Required positional arguments in order: usage name, target. */
    std::vector<std::pair<const char *, std::string *>> positionals{};
};

struct Result
{
    Reject reject = Reject::None;
    /** The reject, worded for the user ("--seed needs a value"). */
    std::string message;
    bool help = false, version = false;
};

/** An unreadable number is OutOfRange when it is all digits. */
inline Reject
numberReject(const char *v)
{
    return *v != '\0' && v[std::strspn(v, "0123456789")] == '\0'
               ? Reject::OutOfRange
               : Reject::BadValue;
}

/** Store `v` into `f`'s target, checking its kind and range. */
inline Reject
store(const Flag &f, const char *v)
{
    if (auto *s = std::get_if<std::string *>(&f.target)) {
        **s = v;
        return Reject::None;
    }
    if (auto *r = std::get_if<Reader>(&f.target))
        return r->read(v)                  ? Reject::None
               : r->kind == Kind::Number ? numberReject(v)
                                         : Reject::BadValue;
    double x = 0;
    std::uint64_t n = 0;
    auto *real = std::get_if<double *>(&f.target);
    auto *u32 = std::get_if<unsigned *>(&f.target);
    if (real ? !parseDoubleStrict(v, x) : !parseU64Strict(v, n))
        return real ? Reject::BadValue : numberReject(v);
    if (!real)
        x = static_cast<double>(n);
    if (x < f.lo || x > f.hi || (u32 && n > UINT_MAX))
        return Reject::OutOfRange;
    if (real)
        **real = x;
    else if (u32)
        **u32 = static_cast<unsigned>(n);
    else
        **std::get_if<std::uint64_t *>(&f.target) = n;
    return Reject::None;
}

/** What `f`'s value must be, in words. */
inline std::string
expected(const Flag &f)
{
    if (auto *r = std::get_if<Reader>(&f.target))
        return r->expect;
    if (std::holds_alternative<double *>(f.target))
        return f.lo > 0 ? "a positive number" : "a non-negative number";
    auto whole = [](double b) {
        return std::to_string(static_cast<std::uint64_t>(b));
    };
    if (f.hi != HUGE_VAL)
        return "an integer in [" + whole(f.lo) + ", " + whole(f.hi) + "]";
    return f.lo == 0 ? "a non-negative integer"
                     : "an integer >= " + whole(f.lo);
}

inline Result
parse(const Table &t, int argc, char *const *argv)
{
    Result r;
    auto fail = [&r](Reject why, std::string message) {
        r.reject = why;
        r.message = std::move(message);
        return r;
    };
    std::size_t positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "--version") {
            (arg == "--help" ? r.help : r.version) = true;
            return r;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (positional == t.positionals.size())
                return fail(Reject::ExtraPositional,
                            "unexpected argument '" + arg +
                                "' (too many positionals)");
            *t.positionals[positional++].second = arg;
            continue;
        }
        auto f = std::find_if(t.flags.begin(), t.flags.end(),
                              [&](const Flag &row) {
                                  return arg == row.name;
                              });
        if (f == t.flags.end())
            return fail(Reject::UnknownFlag,
                        "unknown argument '" + arg + "'");
        if (auto *sw = std::get_if<bool *>(&f->target)) {
            **sw = true;
            continue;
        }
        if (i + 1 >= argc)
            return fail(Reject::MissingValue,
                        arg + " needs a " +
                            (std::strcmp(f->metavar, "FILE") == 0
                                 ? "file"
                                 : "value"));
        const char *v = argv[++i];
        const Reject why = store(*f, v);
        if (why == Reject::None)
            continue;
        const auto *reader = std::get_if<Reader>(&f->target);
        const std::string got = std::string(" '") + v + "'";
        if (reader == nullptr || reader->kind == Kind::Number)
            return fail(why, arg + " needs " + expected(*f) + ", got" +
                                 got);
        return fail(why, (reader->kind == Kind::Choice ? "unknown "
                                                       : "malformed ") +
                             arg + got + " (expected " + reader->expect +
                             ")");
    }
    if (positional < t.positionals.size())
        return fail(Reject::MissingValue,
                    std::string("missing ") +
                        t.positionals[positional].first);
    return r;
}

inline void
printUsage(std::FILE *out, const Table &t, const char *prog)
{
    std::fprintf(out, "usage: %s [options]", prog);
    for (const auto &p : t.positionals)
        std::fprintf(out, " %s", p.first);
    auto row = [out](const std::string &lhs, const char *help) {
        std::fprintf(out, "\n  %-24s %s", lhs.c_str(), help);
    };
    for (const Flag &f : t.flags)
        row(f.name + std::string(*f.metavar ? " " : "") + f.metavar,
            f.help);
    row("--help", "print this usage and exit");
    row("--version", "print the build provenance and exit");
    std::fprintf(out, "\n");
}

/** "SHA (BUILD_TYPE), snapshot format N": what built this binary. */
inline std::string
provenance()
{
    return std::string(ckpt::kBuildGitSha) + " (" + ckpt::kBuildType +
           "), snapshot format " + std::to_string(ckpt::kFormatVersion);
}

/**
 * Print what a parse that stored no values calls for: usage on
 * --help or the provenance line on --version (stdout, status 0), or
 * the reject and usage (stderr, status 2).
 * @return that status, or -1 when `r` is a clean parse.
 */
inline int
finish(const Table &t, const Result &r, const char *prog)
{
    if (r.help)
        printUsage(stdout, t, prog);
    else if (r.version)
        std::printf("%s %s\n", prog, provenance().c_str());
    if (r.help || r.version)
        return 0;
    if (r.reject == Reject::None)
        return -1;
    std::fprintf(stderr, "%s: %s\n", prog, r.message.c_str());
    printUsage(stderr, t, prog);
    return 2;
}

/** parse() for a main(): exits through finish() unless clean. */
inline void
parseOrExit(const Table &t, int argc, char **argv)
{
    const int rc =
        finish(t, parse(t, argc, argv), argc > 0 ? argv[0] : "");
    if (rc >= 0)
        std::exit(rc);
}

/** `--jobs N` as exec::parseJobs reads it. */
inline Reader
jobs(unsigned &target)
{
    return {[&target](const char *v) {
                return exec::parseJobs(v, target);
            },
            "an integer >= 1", Kind::Number};
}

} // namespace xui::cli

#endif // XUI_CLI_FLAGS_HH
