/**
 * @file
 * 256-bit vector bitmap used by the interrupt-forwarding registers
 * (forwarding_enabled / forwarded_active) and the UIRR MSR. One bit
 * per x86 interrupt vector.
 */

#ifndef XUI_INTR_BITSET256_HH
#define XUI_INTR_BITSET256_HH

#include <array>
#include <cstdint>

namespace xui
{

/** Fixed 256-bit bitmap with scan support (unlike std::bitset). */
class Bitset256
{
  public:
    Bitset256() { clearAll(); }

    /** Set bit `idx` (0..255). */
    void set(unsigned idx);

    /** Clear bit `idx`. */
    void clear(unsigned idx);

    /** Test bit `idx`. */
    bool test(unsigned idx) const;

    /** True when at least one bit is set. */
    bool any() const;

    /** Number of set bits. */
    unsigned count() const;

    /**
     * Index of the lowest set bit, or 256 when empty. Interrupt
     * priority on x86 favours *higher* vectors, so highestSet() is
     * what delivery uses; findFirst is for iteration.
     */
    unsigned findFirst() const;

    /** Index of the highest set bit, or 256 when empty. */
    unsigned findHighest() const;

    /** Clear every bit. */
    void clearAll();

    /** Bitwise AND. */
    Bitset256 operator&(const Bitset256 &o) const;

    /** Bitwise OR. */
    Bitset256 operator|(const Bitset256 &o) const;

    bool operator==(const Bitset256 &o) const { return words_ == o.words_; }

    /** Raw 64-bit word access (word 0 = vectors 0-63). */
    std::uint64_t word(unsigned i) const { return words_[i]; }

    /** Checkpoint archive visit (ckpt/codec.hh): the four words. */
    template <class Ar>
    void visit(Ar &ar)
    {
        for (std::uint64_t &w : words_)
            ar.u64(w);
    }

  private:
    std::array<std::uint64_t, 4> words_;
};

} // namespace xui

#endif // XUI_INTR_BITSET256_HH
