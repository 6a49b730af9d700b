#include "rxl/common/bytes.hpp"

#include <bit>
#include <cassert>
#include <cctype>
#include <cstdio>

namespace rxl {

void flip_bit(std::span<std::uint8_t> buf, std::size_t bit_index) noexcept {
  assert(bit_index < buf.size() * 8);
  buf[bit_index / 8] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

bool get_bit(std::span<const std::uint8_t> buf,
             std::size_t bit_index) noexcept {
  assert(bit_index < buf.size() * 8);
  return (buf[bit_index / 8] >> (bit_index % 8)) & 1u;
}

std::size_t popcount(std::span<const std::uint8_t> buf) noexcept {
  std::size_t count = 0;
  for (const auto byte : buf) count += std::popcount(byte);
  return count;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) noexcept {
  assert(a.size() == b.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    count += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(a[i] ^ b[i])));
  }
  return count;
}

std::string hexdump(std::span<const std::uint8_t> buf,
                    std::size_t bytes_per_line) {
  if (bytes_per_line == 0) bytes_per_line = 16;
  std::string out;
  char scratch[24];
  for (std::size_t line = 0; line < buf.size(); line += bytes_per_line) {
    std::snprintf(scratch, sizeof scratch, "%08zx  ", line);
    out += scratch;
    const std::size_t end = std::min(line + bytes_per_line, buf.size());
    for (std::size_t i = line; i < line + bytes_per_line; ++i) {
      if (i < end) {
        std::snprintf(scratch, sizeof scratch, "%02x ", buf[i]);
        out += scratch;
      } else {
        out += "   ";
      }
    }
    out += " |";
    for (std::size_t i = line; i < end; ++i) {
      const char c = static_cast<char>(buf[i]);
      out += std::isprint(static_cast<unsigned char>(c)) ? c : '.';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace rxl
