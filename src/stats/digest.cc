#include "stats/digest.hh"

#include <cstring>

namespace xui
{

void
Fnv1a::update(const void *data, std::size_t len)
{
    // Eight bytes per little-endian word fold, then the tail byte by
    // byte: the same byte sequence, so the same value.
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t word = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&word, p + i, 8);
        } else {
            for (unsigned b = 0; b < 8; ++b)
                word |= std::uint64_t{p[i + b]} << (8 * b);
        }
        update(word);
    }
    for (; i < len; ++i)
        updateByte(p[i]);
}

std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    Fnv1a h;
    h.update(data, len);
    return h.value();
}

} // namespace xui
