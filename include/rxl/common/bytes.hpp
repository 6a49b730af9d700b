// Byte-buffer helpers: bit flips, hexdump, little-endian scalar packing.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace rxl {

/// Flips bit `bit_index` (0 = LSB of byte 0) in `buf`.
/// Precondition: bit_index < buf.size() * 8.
void flip_bit(std::span<std::uint8_t> buf, std::size_t bit_index) noexcept;

namespace detail {

/// `value` with its bytes in little-endian order: the identity on
/// little-endian hosts, a byte reversal on big-endian ones.
template <typename T>
[[nodiscard]] constexpr T to_from_le(T value) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return value;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | (value & 0xFF));
      value = static_cast<T>(value >> 8);
    }
    return out;
  }
}

template <typename T>
[[nodiscard]] inline T load_le(std::span<const std::uint8_t> buf,
                               std::size_t offset) noexcept {
  assert(offset + sizeof(T) <= buf.size());
  T value = 0;
  std::memcpy(&value, buf.data() + offset, sizeof value);
  return to_from_le(value);
}

template <typename T>
inline void store_le(std::span<std::uint8_t> buf, std::size_t offset,
                     T value) noexcept {
  assert(offset + sizeof(T) <= buf.size());
  value = to_from_le(value);
  std::memcpy(buf.data() + offset, &value, sizeof value);
}

}  // namespace detail

/// Little-endian scalar store/load (the flit format is little-endian).
/// Each is one std::memcpy, which compiles to a single unaligned load or
/// store.
inline void store_le16(std::span<std::uint8_t> buf, std::size_t offset,
                       std::uint16_t value) noexcept {
  detail::store_le(buf, offset, value);
}
inline void store_le64(std::span<std::uint8_t> buf, std::size_t offset,
                       std::uint64_t value) noexcept {
  detail::store_le(buf, offset, value);
}
[[nodiscard]] inline std::uint16_t load_le16(std::span<const std::uint8_t> buf,
                                             std::size_t offset) noexcept {
  return detail::load_le<std::uint16_t>(buf, offset);
}
[[nodiscard]] inline std::uint64_t load_le64(std::span<const std::uint8_t> buf,
                                             std::size_t offset) noexcept {
  return detail::load_le<std::uint64_t>(buf, offset);
}

/// Classic offset+hex+ASCII dump, for debugging and example output.
[[nodiscard]] std::string hexdump(std::span<const std::uint8_t> buf,
                                  std::size_t bytes_per_line = 16);

}  // namespace rxl
