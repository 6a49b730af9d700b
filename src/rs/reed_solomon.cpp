#include "rxl/rs/reed_solomon.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "rxl/gf256/gf256.hpp"

namespace rxl::rs {
namespace gf = rxl::gf256;

ReedSolomon::ReedSolomon(std::size_t data_symbols) : k_(data_symbols) {
  if (k_ + kParitySymbols > gf::kGroupOrder)
    throw std::invalid_argument("RS: codeword exceeds 255 symbols");
  // g(x) = (x - alpha^0)(x - alpha^1), built by repeated multiplication.
  generator_.assign(1, 1);  // the constant polynomial 1
  for (unsigned j = 0; j < kParitySymbols; ++j) {
    const std::uint8_t root = gf::alpha_pow(j);
    std::vector<std::uint8_t> next(generator_.size() + 1, 0);
    for (std::size_t i = 0; i < generator_.size(); ++i) {
      next[i + 1] = gf::add(next[i + 1], generator_[i]);          // * x
      next[i] = gf::add(next[i], gf::mul(generator_[i], root));   // * root
    }
    generator_ = std::move(next);
  }
  // Syndrome weight rows: W[j][b] = alpha^(j * (n - 1 - b)). Walk each row
  // from b = n-1 down so the exponent grows by j per step; a conditional
  // subtract keeps it in [0, 255) with no `%` in the loop.
  const std::size_t n = k_ + kParitySymbols;
  syndrome_weights_.resize(kParitySymbols * n);
  for (unsigned j = 0; j < kParitySymbols; ++j) {
    std::uint8_t* row = &syndrome_weights_[std::size_t{j} * n];
    unsigned exponent = 0;
    for (std::size_t b = n; b-- > 0;) {
      row[b] = gf::alpha_pow_unreduced(exponent);
      exponent += j;
      if (exponent >= gf::kGroupOrder) exponent -= gf::kGroupOrder;
    }
  }
}

void ReedSolomon::encode_impl(const std::uint8_t* data,
                              std::size_t data_stride, std::uint8_t* parity,
                              std::size_t parity_stride) const {
  // Systematic encoding: parity = (m(x) * x^2) mod g(x), in closed form
  // from two batch reductions (D0, D1) instead of the serial data-dependent
  // LFSR recurrence; see parity2_from_folds. Buffer order is descending
  // degree (data-first layout): parity[0] is the highest-degree remainder
  // coefficient.
  const std::uint8_t* w1 = &syndrome_weights_[k_ + kParitySymbols];  // row 1
  std::uint8_t d0 = 0;
  std::uint8_t d1 = 0;
  if (data_stride == 1) {
    d0 = gf::xor_fold_span({data, k_});
    d1 = gf::dot_span({w1, k_}, {data, k_});
  } else {
    for (std::size_t b = 0; b < k_; ++b) {
      const std::uint8_t c = data[b * data_stride];
      d0 ^= c;
      d1 ^= gf::detail::mul_nib(std::size_t{w1[b]} * 16, c);
    }
  }
  parity2_from_folds(d0, d1, parity, parity_stride);
}

void ReedSolomon::parity2_from_folds(std::uint8_t d0, std::uint8_t d1,
                                     std::uint8_t* parity,
                                     std::size_t parity_stride) noexcept {
  // The systematic parity (p0, p1) is the unique pair zeroing both
  // syndromes of data||p0||p1:
  //   S0 = D0 ^ p0 ^ p1                 = 0
  //   S1 = D1 ^ mul(p0, alpha) ^ p1     = 0
  // Adding the equations gives p0 * (1 ^ alpha) = D0 ^ D1.
  // inv(1 ^ alpha) is a constant of the field, not of the geometry.
  constexpr std::uint8_t kInvOnePlusAlpha =
      gf::inv(gf::add(1, gf::alpha_pow(1)));
  const std::uint8_t p0 =
      gf::mul(static_cast<std::uint8_t>(d0 ^ d1), kInvOnePlusAlpha);
  parity[0] = p0;
  parity[parity_stride] = static_cast<std::uint8_t>(d0 ^ p0);
}

void ReedSolomon::encode(std::span<const std::uint8_t> data,
                         std::span<std::uint8_t> parity) const {
  assert(data.size() == k_);
  assert(parity.size() == kParitySymbols);
  encode_impl(data.data(), 1, parity.data(), 1);
}

void ReedSolomon::encode_strided(std::uint8_t* base,
                                 std::size_t stride) const {
  encode_impl(base, stride, base + k_ * stride, stride);
}

void ReedSolomon::encode_reference(std::span<const std::uint8_t> data,
                                   std::span<std::uint8_t> parity) const {
  assert(data.size() == k_);
  assert(parity.size() == kParitySymbols);
  // LFSR long division: reg[i] holds the coefficient of degree i.
  constexpr std::size_t r = kParitySymbols;
  std::uint8_t reg[r] = {};
  for (const std::uint8_t symbol : data) {
    const std::uint8_t feedback = gf::add(symbol, reg[r - 1]);
    for (std::size_t i = r - 1; i > 0; --i)
      reg[i] = gf::add(reg[i - 1], gf::mul(feedback, generator_[i]));
    reg[0] = gf::mul(feedback, generator_[0]);
  }
  for (std::size_t i = 0; i < r; ++i) parity[i] = reg[r - 1 - i];
}

void ReedSolomon::syndromes_impl(const std::uint8_t* base, std::size_t stride,
                                 std::span<std::uint8_t> out) const {
  const std::size_t n = k_ + kParitySymbols;
  // S0: weight row 0 is all ones, so the dot product collapses to an XOR
  // fold — 8 bytes at a time when the codeword is contiguous.
  if (stride == 1) {
    out[0] = gf::xor_fold_span({base, n});
  } else {
    std::uint8_t acc = 0;
    for (std::size_t b = 0; b < n; ++b) acc ^= base[b * stride];
    out[0] = acc;
  }
  // S1 is one weighted dot product against weight row 1.
  const std::uint8_t* __restrict w = &syndrome_weights_[n];
  std::uint8_t acc = 0;
  for (std::size_t b = 0; b < n; ++b)
    acc ^= gf::detail::mul_nib(std::size_t{w[b]} * 16, base[b * stride]);
  out[1] = acc;
}

void ReedSolomon::syndromes(std::span<const std::uint8_t> codeword,
                            std::span<std::uint8_t> out) const {
  assert(codeword.size() == k_ + kParitySymbols);
  assert(out.size() == kParitySymbols);
  syndromes_impl(codeword.data(), 1, out);
}

void ReedSolomon::syndromes_strided(const std::uint8_t* base,
                                    std::size_t stride,
                                    std::span<std::uint8_t> out) const {
  assert(out.size() == kParitySymbols);
  syndromes_impl(base, stride, out);
}

void ReedSolomon::syndromes_reference(std::span<const std::uint8_t> codeword,
                                      std::span<std::uint8_t> out) const {
  assert(codeword.size() == k_ + kParitySymbols);
  assert(out.size() == kParitySymbols);
  const std::size_t n = k_ + kParitySymbols;
  // Buffer index b maps to polynomial degree n-1-b (data first / highest
  // degree first; parity occupies the low-degree tail).
  for (unsigned j = 0; j < kParitySymbols; ++j) {
    std::uint8_t acc = 0;
    const std::uint8_t x = gf::alpha_pow(j);
    // Horner over descending buffer order == ascending degree reversed.
    for (std::size_t b = 0; b < n; ++b) acc = gf::add(gf::mul(acc, x), codeword[b]);
    out[j] = acc;
  }
}

DecodeResult ReedSolomon::decode(std::span<std::uint8_t> codeword) const {
  assert(codeword.size() == k_ + kParitySymbols);
  std::uint8_t syn[kParitySymbols];
  syndromes(codeword, syn);
  if ((syn[0] | syn[1]) == 0) return {DecodeStatus::kClean, 0};
  const SingleVerdict verdict = classify_single(syn[0], syn[1]);
  if (verdict.status != DecodeStatus::kCorrected)
    return {DecodeStatus::kDetectedUncorrectable, 0};
  codeword[verdict.buffer_index] =
      gf::add(codeword[verdict.buffer_index], verdict.magnitude);
  return {DecodeStatus::kCorrected, 1};
}

ReedSolomon::SingleVerdict ReedSolomon::classify_single(
    std::uint8_t s0, std::uint8_t s1) const {
  assert(s0 != 0 || s1 != 0);
  // Single-error hypothesis for the code's roots alpha^0, alpha^1:
  //   S0 = e, S1 = e * alpha^degree.
  // Both syndromes must be nonzero and the implied degree must fall inside
  // the shortened codeword; otherwise the error is detected-uncorrectable.
  SingleVerdict verdict;
  if (s0 == 0 || s1 == 0) return verdict;
  const unsigned degree = gf::log(gf::div(s1, s0));
  const std::size_t n = k_ + kParitySymbols;
  if (degree >= n) {
    // Correction targets a zero-padded (shortened) position: provably a
    // multi-symbol error. This is the detection mechanism of §2.5.
    return verdict;
  }
  verdict.status = DecodeStatus::kCorrected;
  verdict.buffer_index = n - 1 - degree;
  verdict.magnitude = s0;
  return verdict;
}

}  // namespace rxl::rs
