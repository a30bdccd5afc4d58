/**
 * @file
 * Incremental order-sensitive 64-bit digest (FNV-1a) used by the
 * verification subsystem to fingerprint event streams. FNV-1a is
 * byte-serial, so two streams match iff every folded word matches in
 * order — exactly the property a determinism check needs. It is not
 * cryptographic and does not try to be.
 *
 * Folding a zero byte is a bare multiply, (h ^ 0) * P = h * P, so k
 * zero bytes fold as one multiply by P^k (mod 2^64). Word folds use
 * that for the zero high bytes of a word, which most cycle counts,
 * sequence numbers and PCs have, and byte ranges fold a word at a
 * time. The value is the byte-serial FNV-1a value, bit for bit.
 */

#ifndef XUI_STATS_DIGEST_HH
#define XUI_STATS_DIGEST_HH

#include <array>
#include <bit>
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

    /**
     * Fold a 64-bit word, little-endian byte order: the significant
     * low bytes one at a time, then the zero high bytes as one
     * multiply by P^k.
     */
    void update(std::uint64_t v)
    {
        const unsigned significant =
            static_cast<unsigned>(71 - std::countl_zero(v)) / 8;
        std::uint64_t h = hash_;
        for (unsigned i = 0; i < significant; ++i) {
            h = (h ^ (v & 0xff)) * kPrime;
            v >>= 8;
        }
        hash_ = h * kPrimePow[8 - significant];
        bytes_ += 8;
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
    /** kPrimePow[k] = P^k mod 2^64: folds k zero bytes at once. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> pow{};
        pow[0] = 1;
        for (std::size_t k = 1; k < pow.size(); ++k)
            pow[k] = pow[k - 1] * kPrime;
        return pow;
    }();

    std::uint64_t hash_ = kOffsetBasis;
    std::uint64_t bytes_ = 0;
};

/** One-shot digest of a buffer. */
std::uint64_t fnv1a(const void *data, std::size_t len);

} // namespace xui

#endif // XUI_STATS_DIGEST_HH
