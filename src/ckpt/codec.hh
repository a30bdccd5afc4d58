/**
 * @file
 * Byte codec for the snapshot engine: three archives, Writer, Reader
 * and Sizer, with the same verbs, so a checkpointed component lists
 * its fields once in a single member template
 *
 *     template <class Ar> void visit(Ar &ar)
 *     {
 *         ar.u64(cycle_);
 *         ar.enumU8(mode_, Mode::Last);
 *         ar.seq(records_, Record::kCkptBytes);
 *     }
 *
 * and the same code saves (Writer copies each field out), loads
 * (Reader copies it back in) and sizes (Sizer counts the bytes Writer
 * would append, so a save can allocate its buffer once, at its exact
 * size). The visit order is the format; save, load and size cannot
 * drift apart because there is only one of them.
 *
 * Header-only and dependency-free on purpose: uarch/intr/verify
 * components include it without linking the snapshot file engine, so
 * the layering (ckpt's file code sits above fault, which sits above
 * des) stays acyclic. Leaf types below uarch (Rng, Fnv1a, Bitset256,
 * the intr registers) do not include it at all: their visit() is a
 * template over any archive.
 *
 * The format is deliberately dumb — fixed-width little-endian
 * integers, length-prefixed sequences, no varints, no field tags.
 * Crash consistency and corruption detection live a layer up
 * (snapshot.hh: content digest + format version in the file header),
 * so the codec only has to be unambiguous and bounds-safe: every
 * Reader verb fails sticky on underrun or on a value the live state
 * could not hold, and then leaves its target untouched. A visit over
 * a torn or bit-flipped payload therefore runs to its end without
 * reading past the buffer, and the caller checks ok() once.
 */

#ifndef XUI_CKPT_CODEC_HH
#define XUI_CKPT_CODEC_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace xui::ckpt
{

/** Sequence verb's default: no capacity limit beyond the bytes. */
constexpr std::size_t kNoCap = ~std::size_t(0);

/** One sequence element: a 32-bit word or a visit()-able type. */
template <class Ar, class T>
void
visitItem(Ar &ar, T &item)
{
    if constexpr (std::is_same_v<T, std::uint32_t>)
        ar.u32(item);
    else
        item.visit(ar);
}

/** Append-only little-endian byte sink (the save archive). */
class Writer
{
  public:
    void u8(std::uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void u16(std::uint16_t v) { le(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }

    void bytes(const void *data, std::size_t n)
    {
        out_.append(static_cast<const char *>(data), n);
    }

    /** One-byte enum (or small code) no greater than `last`. */
    template <class E>
    void enumU8(E v, E /* last */)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    /** Identity guard or fixed size the loader must find again. */
    void expect(std::uint32_t v) { u32(v); }
    void expect(std::uint64_t v) { u64(v); }

    /** Load-side validation; the live state always satisfies it. */
    void require(bool) {}

    /**
     * Count, then each element. `minBytes` and `cap` bound the count
     * on load only (see Reader::seq).
     */
    template <class C>
    void seq(C &c, std::size_t /* minBytes */,
             std::size_t /* cap */ = kNoCap)
    {
        u64(c.size());
        for (auto &item : c)
            visitItem(*this, item);
    }

    /** Length-prefixed string. */
    void str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    /**
     * A region of `n` bytes that encodes as all zeros when `blank`
     * (e.g. a never-touched cache set). Appends the zeros and returns
     * true; returns false when not blank, and the caller encodes the
     * region field by field.
     */
    bool zeroRun(bool blank, std::size_t n)
    {
        if (blank)
            out_.append(n, '\0');
        return blank;
    }

    /** Allocate room for `n` bytes in all, e.g. a Sizer's count. */
    void reserve(std::size_t n) { out_.reserve(n); }

    const std::string &data() const { return out_; }
    std::string take() { return std::move(out_); }
    std::size_t size() const { return out_.size(); }

  private:
    template <class T>
    void le(T v)
    {
        char word[sizeof(T)] = {};
        for (unsigned i = 0; i < sizeof(T); ++i)
            word[i] = static_cast<char>(v >> (8 * i));
        out_.append(word, sizeof(T));
    }

    std::string out_;
};

/**
 * Byte counter with Writer's verbs (the size archive): after a visit,
 * size() is exactly the number of bytes a Writer would have appended
 * for the same state. Its verbs ignore the values they are handed
 * and count only their encoded widths.
 */
class Sizer
{
  public:
    void u8(std::uint8_t) { n_ += 1; }
    void b(bool) { n_ += 1; }
    void u16(std::uint16_t) { n_ += 2; }
    void u32(std::uint32_t) { n_ += 4; }
    void u64(std::uint64_t) { n_ += 8; }

    void bytes(const void *, std::size_t n) { n_ += n; }

    template <class E>
    void enumU8(E, E)
    {
        n_ += 1;
    }

    void expect(std::uint32_t) { n_ += 4; }
    void expect(std::uint64_t) { n_ += 8; }

    void require(bool) {}

    template <class C>
    void seq(C &c, std::size_t /* minBytes */,
             std::size_t /* cap */ = kNoCap)
    {
        u64(c.size());
        for (auto &item : c)
            visitItem(*this, item);
    }

    void str(const std::string &s) { n_ += 8 + s.size(); }

    bool zeroRun(bool blank, std::size_t n)
    {
        if (blank)
            n_ += n;
        return blank;
    }

    std::size_t size() const { return n_; }

  private:
    std::size_t n_ = 0;
};

/** Bounds-checked reader over a byte buffer, not owned (the load
 *  archive). */
class Reader
{
  public:
    Reader(const char *data, std::size_t n) : p_(data), n_(n) {}

    explicit Reader(const std::string &s)
        : Reader(s.data(), s.size())
    {}

    bool u8(std::uint8_t &v)
    {
        if (!need(1))
            return false;
        v = static_cast<std::uint8_t>(p_[pos_++]);
        return true;
    }

    bool b(bool &v)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || raw > 1)
            return fail();
        v = raw != 0;
        return true;
    }

    bool u16(std::uint16_t &v) { return le(v); }
    bool u32(std::uint32_t &v) { return le(v); }
    bool u64(std::uint64_t &v) { return le(v); }

    bool bytes(void *out, std::size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, p_ + pos_, n);
        pos_ += n;
        return true;
    }

    /** One-byte enum (or small code); values past `last` fail. */
    template <class E>
    bool enumU8(E &v, E last)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || raw > static_cast<std::uint8_t>(last))
            return fail();
        v = static_cast<E>(raw);
        return true;
    }

    /** Read a guard word; anything but `v` fails. */
    bool expect(std::uint32_t v) { return expectLe(v); }
    bool expect(std::uint64_t v) { return expectLe(v); }

    /** Fail the stream unless a loaded value is one the live state
     *  could hold. */
    bool require(bool cond) { return cond || fail(); }

    /**
     * Read a count, bound it, then clear `c` and emplace and visit
     * each element. A count above `cap` (a fixed-capacity ring), or
     * one whose elements of at least `minBytes` each could not fit in
     * the bytes left, is a corrupt stream, not an allocation request:
     * it fails before anything is allocated.
     */
    template <class C>
    bool seq(C &c, std::size_t minBytes, std::size_t cap = kNoCap)
    {
        std::uint64_t n = 0;
        if (!u64(n) || n > cap || n > remaining() / minBytes)
            return fail();
        c.clear();
        for (std::uint64_t i = 0; i < n && ok_; ++i)
            visitItem(*this, c.emplace_back());
        return ok_;
    }

    bool str(std::string &s)
    {
        std::uint64_t len = 0;
        if (!u64(len) || len > n_ - pos_)
            return fail();
        s.assign(p_ + pos_, static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return true;
    }

    /**
     * Skip `n` bytes when `blank` (the target region is in its
     * never-touched state) and the bytes are all zero, checked a word
     * at a time; returns true. Otherwise reads nothing and returns
     * false, and the caller decodes the region field by field. A
     * blank run cut short by the buffer's end (or on a failed stream)
     * fails sticky and returns true: the blank target stays as it is.
     */
    bool zeroRun(bool blank, std::size_t n)
    {
        if (!blank)
            return false;
        if (!need(n))
            return true;
        const char *p = p_ + pos_;
        std::size_t i = 0;
        std::uint64_t any = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, p + i, 8);
            any |= word;
        }
        for (; i < n; ++i)
            any |= static_cast<std::uint8_t>(p[i]);
        if (any != 0)
            return false;
        pos_ += n;
        return true;
    }

    /** Sticky failure flag: once an underrun happens, stays false. */
    bool ok() const { return ok_; }

    bool atEnd() const { return pos_ == n_; }
    std::size_t remaining() const { return n_ - pos_; }

    /** Mark the stream malformed (component-level invariants). */
    bool fail()
    {
        ok_ = false;
        return false;
    }

  private:
    bool need(std::size_t n)
    {
        if (!ok_ || n_ - pos_ < n)
            return fail();
        return true;
    }

    template <class T>
    bool le(T &v)
    {
        if (!need(sizeof(T)))
            return false;
        T x = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            x |= static_cast<T>(
                static_cast<T>(static_cast<std::uint8_t>(p_[pos_++]))
                << (8 * i));
        v = x;
        return true;
    }

    template <class T>
    bool expectLe(T v)
    {
        T got = 0;
        return le(got) && (got == v || fail());
    }

    const char *p_;
    std::size_t n_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace xui::ckpt

#endif // XUI_CKPT_CODEC_HH
