/**
 * @file
 * Incremental order-sensitive 64-bit digest (FNV-1a) used by the
 * verification subsystem to fingerprint event streams. FNV-1a is
 * byte-serial, so two streams match iff every folded word matches in
 * order — exactly the property a determinism check needs. It is not
 * cryptographic and does not try to be.
 */

#ifndef XUI_STATS_DIGEST_HH
#define XUI_STATS_DIGEST_HH

#include <cstddef>
#include <cstdint>

namespace xui
{

/** Streaming FNV-1a 64-bit hasher. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffsetBasis =
        0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    /** Fold one byte. */
    void updateByte(std::uint8_t b)
    {
        hash_ = (hash_ ^ b) * kPrime;
        ++bytes_;
    }

    /** Fold a 64-bit word, little-endian byte order. */
    void update(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            updateByte(static_cast<std::uint8_t>(v));
            v >>= 8;
        }
    }

    /** Fold a raw byte range. */
    void update(const void *data, std::size_t len);

    /** Current digest value. */
    std::uint64_t value() const { return hash_; }

    /** Count of bytes folded so far. */
    std::uint64_t bytes() const { return bytes_; }

    /** Reset to the empty-stream state. */
    void reset()
    {
        hash_ = kOffsetBasis;
        bytes_ = 0;
    }

    /**
     * Checkpoint archive visit (ckpt/codec.hh). FNV-1a's whole state
     * is (hash, byte count), so restoring these two words continues
     * the stream exactly where it left off.
     */
    template <class Ar>
    void visit(Ar &ar)
    {
        ar.u64(hash_);
        ar.u64(bytes_);
    }

  private:
    std::uint64_t hash_ = kOffsetBasis;
    std::uint64_t bytes_ = 0;
};

/** One-shot digest of a buffer. */
std::uint64_t fnv1a(const void *data, std::size_t len);

} // namespace xui

#endif // XUI_STATS_DIGEST_HH
