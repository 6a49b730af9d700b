#include "rxl/gf256/gf256.hpp"

#include <cassert>
#include <cstring>

namespace rxl::gf256 {

std::uint8_t xor_fold_span(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t acc64 = 0;
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    acc64 ^= chunk;
    p += 8;
    n -= 8;
  }
  acc64 ^= acc64 >> 32;
  acc64 ^= acc64 >> 16;
  acc64 ^= acc64 >> 8;
  auto acc = static_cast<std::uint8_t>(acc64);
  while (n-- > 0) acc ^= *p++;
  return acc;
}

std::uint8_t dot_span(std::span<const std::uint8_t> weights,
                      std::span<const std::uint8_t> data) noexcept {
  assert(weights.size() == data.size());
  const std::uint8_t* __restrict w = weights.data();
  const std::uint8_t* __restrict s = data.data();
  const std::size_t n = data.size();
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc ^= detail::mul_nib(std::size_t{w[i]} * 16, s[i]);
  return acc;
}

}  // namespace rxl::gf256
