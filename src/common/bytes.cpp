#include "rxl/common/bytes.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>

namespace rxl {

void flip_bit(std::span<std::uint8_t> buf, std::size_t bit_index) noexcept {
  assert(bit_index < buf.size() * 8);
  buf[bit_index / 8] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
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
