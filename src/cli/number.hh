/**
 * @file
 * The strict number parsers shared by the flag tables
 * (cli/flags.hh), exec::parseJobs and the fault-schedule codec.
 * Dependency-free so the lowest layers can use them.
 */

#ifndef XUI_CLI_NUMBER_HH
#define XUI_CLI_NUMBER_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace xui::cli
{

/** Digits only (no sign, space or suffix), fitting 64 bits. */
inline bool
parseU64Strict(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    std::uint64_t v = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        const auto d = static_cast<std::uint64_t>(*p - '0');
        if (*p < '0' || *p > '9' || v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

/** One finite strtod number spanning the whole text. */
inline bool
parseDoubleStrict(const char *text, double &out)
{
    errno = 0;
    char *end = nullptr;
    const double x = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !std::isfinite(x))
        return false;
    out = x;
    return true;
}

} // namespace xui::cli

#endif // XUI_CLI_NUMBER_HH
