/**
 * @file
 * FNV-1a 64-bit — the one stable byte hash behind every digest in the
 * tree: token hashing in the text encoder, scenario and result digests,
 * the rolling .mtrace record hash, and sweep-cache entry names. All of
 * them appear in goldens or on disk, so the function must never change;
 * everything here is defined by byte values alone and is identical on
 * every platform.
 */

#ifndef MODM_COMMON_HASH_HH
#define MODM_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace modm {

/** FNV-1a 64 offset basis: the hash of zero bytes. */
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/** FNV-1a 64 prime. */
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/** FNV-1a 64 over `n` bytes, continuing from `hash`. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n, std::uint64_t hash = kFnv1a64Basis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= kFnv1a64Prime;
    }
    return hash;
}

/** FNV-1a 64 over the bytes of `data`, continuing from `hash`. */
inline std::uint64_t
fnv1a64(std::string_view data, std::uint64_t hash = kFnv1a64Basis)
{
    return fnv1a64(data.data(), data.size(), hash);
}

/**
 * FNV-1a 64 over the eight bytes of `word`, least significant first,
 * continuing from `hash`. The byte order comes from shifts, not from
 * memory, so the result does not depend on the host's endianness.
 */
inline std::uint64_t
fnv1a64Word(std::uint64_t word, std::uint64_t hash)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= kFnv1a64Prime;
    }
    return hash;
}

} // namespace modm

#endif // MODM_COMMON_HASH_HH
