#include "ckpt/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ckpt/build_info.hh"
#include "stats/digest.hh"

namespace xui::ckpt
{

const char *loadStatusName(LoadStatus s)
{
    switch (s) {
    case LoadStatus::Ok:
        return "ok";
    case LoadStatus::Missing:
        return "missing";
    case LoadStatus::Corrupt:
        return "corrupt";
    case LoadStatus::VersionMismatch:
        return "version_mismatch";
    case LoadStatus::ProvenanceMismatch:
        return "provenance_mismatch";
    }
    return "?";
}

namespace
{

/** Everything before the payload bytes, in file order. */
template <class Ar>
void
visitHeader(Ar &ar, const Snapshot &snap, std::uint64_t payloadDigest)
{
    ar.bytes(kMagic, sizeof(kMagic));
    ar.u32(kFormatVersion);
    ar.str(kBuildGitSha);
    ar.str(kBuildType);
    ar.str(snap.tag);
    ar.u64(snap.seq);
    ar.u64(snap.payload.size());
    ar.u64(payloadDigest);
}

/** The envelope's header: every byte before the payload. */
std::string encodeHeader(const Snapshot &snap)
{
    Writer w;
    visitHeader(w, snap, fnv1a(snap.payload.data(), snap.payload.size()));
    return w.take();
}

/**
 * The whole file at `path` in one buffer sized from its length.
 * False when it cannot be opened or read.
 */
bool readFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    out.resize(ok ? static_cast<std::size_t>(st.st_size) : 0);
    std::size_t off = 0;
    while (ok && off < out.size()) {
        ssize_t got = ::read(fd, out.data() + off, out.size() - off);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0) {
            // A read error, or a file cut short since the fstat.
            ok = got == 0;
            break;
        }
        off += static_cast<std::size_t>(got);
    }
    out.resize(off);
    ::close(fd);
    return ok;
}

/**
 * Write `head`, then `body`, to `path` directly (fault paths skip the
 * tmp). The payload goes out from the caller's buffer as the second
 * piece instead of being copied in behind the header first.
 */
bool writeFile(const std::string &path, const std::string &head,
               const std::string &body, bool sync, std::string *error)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (error)
            *error = path + ": open: " + std::strerror(errno);
        return false;
    }
    for (const std::string *piece : {&head, &body}) {
        std::size_t off = 0;
        while (off < piece->size()) {
            ssize_t wrote = ::write(fd, piece->data() + off,
                                    piece->size() - off);
            if (wrote < 0) {
                if (errno == EINTR)
                    continue;
                if (error)
                    *error = path + ": write: " + std::strerror(errno);
                ::close(fd);
                return false;
            }
            off += static_cast<std::size_t>(wrote);
        }
    }
    bool synced = !sync || ::fsync(fd) == 0;
    if (!synced && error)
        *error = path + ": fsync: " + std::strerror(errno);
    ::close(fd);
    return synced;
}

/**
 * Mutate the encoded envelope per the injected storage fault. The
 * header through payloadDigest occupies a fixed prefix plus three
 * length-prefixed strings; rather than re-deriving that offset,
 * fault shaping works on simple byte positions that are guaranteed
 * to hit the region the action names.
 */
std::string applyFault(std::string out, fault::Action action,
                       std::uint32_t magnitude)
{
    switch (action) {
    case fault::Action::Delay:
        // Torn write: only the first half of the file landed.
        out.resize(out.size() / 2);
        break;
    case fault::Action::Duplicate: {
        // Single bit flip somewhere in the payload region (last
        // byte of the file is always payload when non-empty, and a
        // flip anywhere fails the digest or the header parse).
        if (!out.empty()) {
            std::size_t pos = magnitude % out.size();
            out[pos] = static_cast<char>(out[pos] ^ 0x40);
        }
        break;
    }
    case fault::Action::Reorder:
        // Truncated right after the fixed magic+version prefix.
        out.resize(sizeof(kMagic) + 4);
        break;
    case fault::Action::Spurious:
        // Corrupted magic: reads as "not a snapshot at all".
        if (out.size() >= sizeof(kMagic))
            out[0] = '?';
        break;
    case fault::Action::Storm:
        out.clear();
        break;
    default:
        break;
    }
    return out;
}

} // namespace

std::size_t envelopeBytes(const Snapshot &snap)
{
    Sizer s;
    visitHeader(s, snap, 0);
    s.bytes(snap.payload.data(), snap.payload.size());
    return s.size();
}

SaveResult saveSnapshot(const std::string &path, const Snapshot &snap,
                        fault::Injector *injector, bool sync)
{
    SaveResult res;
    const std::string head = encodeHeader(snap);

    fault::Injector::Decision d;
    if (injector)
        d = injector->decide(fault::Site::CheckpointWrite);

    if (d.action == fault::Action::Drop) {
        // Save silently lost before any byte reached storage; the
        // previous generation (if any) survives untouched.
        res.injected = d.action;
        return res;
    }
    if (d.action != fault::Action::None) {
        // Simulated storage fault on the final path: bypass the
        // tmp+rename discipline on purpose, because the scenario
        // being modeled is the final file ending up damaged.
        res.injected = d.action;
        std::string damaged =
            applyFault(head + snap.payload, d.action, d.magnitude);
        writeFile(path, damaged, {}, sync, &res.error);
        return res;
    }

    // Crash-consistent happy path: tmp sibling + fsync + rename.
    std::string tmp = path + ".tmp";
    if (!writeFile(tmp, head, snap.payload, sync, &res.error)) {
        ::remove(tmp.c_str());
        return res;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        res.error = path + ": rename: " + std::strerror(errno);
        ::remove(tmp.c_str());
        return res;
    }
    res.ok = true;
    return res;
}

LoadStatus loadSnapshot(const std::string &path, Snapshot &out,
                        bool requireProvenance)
{
    std::string bytes;
    if (!readFile(path, bytes))
        return LoadStatus::Missing;

    Reader r(bytes);
    char magic[sizeof(kMagic)];
    if (!r.bytes(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return LoadStatus::Corrupt;
    std::uint32_t version = 0;
    if (!r.u32(version))
        return LoadStatus::Corrupt;
    if (version != kFormatVersion)
        return LoadStatus::VersionMismatch;

    Snapshot snap;
    std::uint64_t payloadSize = 0;
    std::uint64_t payloadDigest = 0;
    if (!r.str(snap.gitSha) || !r.str(snap.buildType) ||
        !r.str(snap.tag) || !r.u64(snap.seq) ||
        !r.u64(payloadSize) || !r.u64(payloadDigest))
        return LoadStatus::Corrupt;
    if (payloadSize != r.remaining())
        return LoadStatus::Corrupt;
    // Drop the header in place: the file's buffer becomes the
    // payload without a second copy of it.
    bytes.erase(0, bytes.size() - r.remaining());
    snap.payload = std::move(bytes);
    if (fnv1a(snap.payload.data(), snap.payload.size()) !=
        payloadDigest)
        return LoadStatus::Corrupt;

    if (requireProvenance &&
        (snap.gitSha != kBuildGitSha || snap.buildType != kBuildType))
        return LoadStatus::ProvenanceMismatch;

    out = std::move(snap);
    return LoadStatus::Ok;
}

std::string GenerationSet::slotPath(std::uint64_t seq) const
{
    return base_ + ".gen" + std::to_string(seq % keep_);
}

SaveResult GenerationSet::save(Snapshot snap,
                               fault::Injector *injector)
{
    snap.seq = nextSeq_++;
    return saveSnapshot(slotPath(snap.seq), snap, injector, sync_);
}

GenerationSet::LoadOutcome
GenerationSet::loadLatest(Snapshot &out,
                          bool requireProvenance) const
{
    LoadOutcome outcome;
    Snapshot best;
    bool haveBest = false;
    for (unsigned slot = 0; slot < keep_; ++slot) {
        Snapshot snap;
        LoadStatus st = loadSnapshot(base_ + ".gen" +
                                         std::to_string(slot),
                                     snap, requireProvenance);
        if (st == LoadStatus::Ok) {
            if (!haveBest || snap.seq > best.seq) {
                best = std::move(snap);
                haveBest = true;
            }
        } else if (st != LoadStatus::Missing) {
            ++outcome.corruptSkipped;
            // Remember the most specific failure so a set that is
            // all-corrupt reports Corrupt, not Missing.
            outcome.status = st;
        }
    }
    if (haveBest) {
        out = std::move(best);
        outcome.status = LoadStatus::Ok;
    }
    return outcome;
}

void GenerationSet::removeAll() const
{
    for (unsigned slot = 0; slot < keep_; ++slot) {
        std::string path = base_ + ".gen" + std::to_string(slot);
        ::remove(path.c_str());
        ::remove((path + ".tmp").c_str());
    }
}

} // namespace xui::ckpt
