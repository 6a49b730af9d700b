#include "rxl/rs/reed_solomon.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "rxl/gf256/gf256.hpp"

namespace rxl::rs {
namespace gf = rxl::gf256;

ReedSolomon::ReedSolomon(std::size_t data_symbols, std::size_t parity_symbols)
    : k_(data_symbols), r_(parity_symbols) {
  if (r_ == 0) throw std::invalid_argument("RS: need at least 1 parity symbol");
  if (k_ + r_ > gf::kGroupOrder)
    throw std::invalid_argument("RS: codeword exceeds 255 symbols");
  // g(x) = prod_{j=0}^{r-1} (x - alpha^j), built by repeated multiplication.
  generator_.assign(1, 1);  // the constant polynomial 1
  for (unsigned j = 0; j < r_; ++j) {
    const std::uint8_t root = gf::alpha_pow(j);
    std::vector<std::uint8_t> next(generator_.size() + 1, 0);
    for (std::size_t i = 0; i < generator_.size(); ++i) {
      next[i + 1] = gf::add(next[i + 1], generator_[i]);          // * x
      next[i] = gf::add(next[i], gf::mul(generator_[i], root));   // * root
    }
    generator_ = std::move(next);
  }
  generator_mul_.resize(256 * r_);
  for (unsigned f = 0; f < 256; ++f) {
    for (std::size_t i = 0; i < r_; ++i) {
      generator_mul_[f * r_ + i] =
          gf::mul(static_cast<std::uint8_t>(f), generator_[i]);
    }
  }
  // Syndrome weight rows: W[j][b] = alpha^(j * (n - 1 - b)). Walk each row
  // from b = n-1 down so the exponent grows by j per step; a conditional
  // subtract keeps it in [0, 255) with no `%` in the loop.
  const std::size_t n = k_ + r_;
  syndrome_weights_.resize(r_ * n);
  for (unsigned j = 0; j < r_; ++j) {
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
  // Systematic encoding: parity = (m(x) * x^r) mod g(x), computed with the
  // standard LFSR long division. reg[i] holds the coefficient of degree i.
  // Buffer order is descending degree (data-first layout): parity[0] is the
  // highest-degree remainder coefficient.
  if (r_ == 2) {
    // Closed-form 2-parity encode: two batch reductions (D0, D1) instead of
    // the serial data-dependent LFSR recurrence; see parity2_from_folds.
    const std::uint8_t* w1 = &syndrome_weights_[k_ + r_];  // row 1
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
    return;
  }
  std::uint8_t reg[64] = {};
  assert(r_ <= 64);
  for (std::size_t s = 0; s < k_; ++s) {
    const std::uint8_t feedback =
        gf::add(data[s * data_stride], reg[r_ - 1]);
    const std::uint8_t* row = &generator_mul_[std::size_t{feedback} * r_];
    for (std::size_t i = r_ - 1; i > 0; --i) {
      reg[i] = gf::add(reg[i - 1], row[i]);
    }
    reg[0] = row[0];
  }
  for (std::size_t i = 0; i < r_; ++i)
    parity[i * parity_stride] = reg[r_ - 1 - i];
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
  assert(parity.size() == r_);
  encode_impl(data.data(), 1, parity.data(), 1);
}

void ReedSolomon::encode_strided(std::uint8_t* base,
                                 std::size_t stride) const {
  encode_impl(base, stride, base + k_ * stride, stride);
}

void ReedSolomon::encode_reference(std::span<const std::uint8_t> data,
                                   std::span<std::uint8_t> parity) const {
  assert(data.size() == k_);
  assert(parity.size() == r_);
  std::uint8_t reg[64] = {};
  assert(r_ <= 64);
  for (const std::uint8_t symbol : data) {
    const std::uint8_t feedback = gf::add(symbol, reg[r_ - 1]);
    for (std::size_t i = r_ - 1; i > 0; --i)
      reg[i] = gf::add(reg[i - 1], gf::mul(feedback, generator_[i]));
    reg[0] = gf::mul(feedback, generator_[0]);
  }
  for (std::size_t i = 0; i < r_; ++i) parity[i] = reg[r_ - 1 - i];
}

void ReedSolomon::syndromes_impl(const std::uint8_t* base, std::size_t stride,
                                 std::span<std::uint8_t> out) const {
  const std::size_t n = k_ + r_;
  // S0: weight row 0 is all ones, so the dot product collapses to an XOR
  // fold — 8 bytes at a time when the codeword is contiguous.
  if (stride == 1) {
    out[0] = gf::xor_fold_span({base, n});
  } else {
    std::uint8_t acc = 0;
    for (std::size_t b = 0; b < n; ++b) acc ^= base[b * stride];
    out[0] = acc;
  }
  // Each further syndrome is one weighted dot product — for the SSC r == 2
  // configuration the loop body runs exactly once.
  for (unsigned j = 1; j < r_; ++j) {
    const std::uint8_t* __restrict w = &syndrome_weights_[std::size_t{j} * n];
    std::uint8_t acc = 0;
    for (std::size_t b = 0; b < n; ++b)
      acc ^= gf::detail::mul_nib(std::size_t{w[b]} * 16, base[b * stride]);
    out[j] = acc;
  }
}

void ReedSolomon::syndromes(std::span<const std::uint8_t> codeword,
                            std::span<std::uint8_t> out) const {
  assert(codeword.size() == k_ + r_);
  assert(out.size() == r_);
  syndromes_impl(codeword.data(), 1, out);
}

void ReedSolomon::syndromes_strided(const std::uint8_t* base,
                                    std::size_t stride,
                                    std::span<std::uint8_t> out) const {
  assert(out.size() == r_);
  syndromes_impl(base, stride, out);
}

void ReedSolomon::syndromes_reference(std::span<const std::uint8_t> codeword,
                                      std::span<std::uint8_t> out) const {
  assert(codeword.size() == k_ + r_);
  assert(out.size() == r_);
  const std::size_t n = k_ + r_;
  // Buffer index b maps to polynomial degree n-1-b (data first / highest
  // degree first; parity occupies the low-degree tail).
  for (unsigned j = 0; j < r_; ++j) {
    std::uint8_t acc = 0;
    const std::uint8_t x = gf::alpha_pow(j);
    // Horner over descending buffer order == ascending degree reversed.
    for (std::size_t b = 0; b < n; ++b) acc = gf::add(gf::mul(acc, x), codeword[b]);
    out[j] = acc;
  }
}

DecodeResult ReedSolomon::decode(std::span<std::uint8_t> codeword) const {
  assert(codeword.size() == k_ + r_);
  std::uint8_t syndrome_buf[64];
  assert(r_ <= 64);
  const std::span<std::uint8_t> syn(syndrome_buf, r_);
  syndromes(codeword, syn);
  const bool clean =
      std::all_of(syn.begin(), syn.end(), [](std::uint8_t s) { return s == 0; });
  if (clean) return {DecodeStatus::kClean, 0};
  if (r_ == 2) return decode_single(codeword, syn[0], syn[1]);
  return decode_general(codeword, syn);
}

ReedSolomon::SingleVerdict ReedSolomon::classify_single(
    std::uint8_t s0, std::uint8_t s1) const {
  assert(r_ == 2);
  assert(s0 != 0 || s1 != 0);
  // Single-error hypothesis for a 2-parity code with roots alpha^0, alpha^1:
  //   S0 = e, S1 = e * alpha^degree.
  // Both syndromes must be nonzero and the implied degree must fall inside
  // the shortened codeword; otherwise the error is detected-uncorrectable.
  SingleVerdict verdict;
  if (s0 == 0 || s1 == 0) return verdict;
  const unsigned degree = gf::log(gf::div(s1, s0));
  const std::size_t n = k_ + r_;
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

DecodeResult ReedSolomon::decode_single(std::span<std::uint8_t> codeword,
                                        std::uint8_t s0,
                                        std::uint8_t s1) const {
  const SingleVerdict verdict = classify_single(s0, s1);
  if (verdict.status != DecodeStatus::kCorrected)
    return {DecodeStatus::kDetectedUncorrectable, 0};
  codeword[verdict.buffer_index] =
      gf::add(codeword[verdict.buffer_index], verdict.magnitude);
  return {DecodeStatus::kCorrected, 1};
}

DecodeResult ReedSolomon::decode_general(
    std::span<std::uint8_t> codeword,
    std::span<const std::uint8_t> syndrome) const {
  const std::size_t n = k_ + r_;
  const unsigned t2 = static_cast<unsigned>(r_);

  // --- Berlekamp-Massey: find error locator sigma(x), ascending degree. ---
  std::vector<std::uint8_t> sigma{1};
  std::vector<std::uint8_t> prev{1};
  std::uint8_t prev_discrepancy = 1;
  unsigned errors = 0;  // current LFSR length L
  unsigned m = 1;       // steps since last length change
  for (unsigned i = 0; i < t2; ++i) {
    std::uint8_t discrepancy = syndrome[i];
    for (unsigned j = 1; j <= errors && j < sigma.size(); ++j)
      discrepancy = gf::add(discrepancy, gf::mul(sigma[j], syndrome[i - j]));
    if (discrepancy == 0) {
      ++m;
      continue;
    }
    if (2 * errors <= i) {
      std::vector<std::uint8_t> saved = sigma;
      const std::uint8_t scale = gf::div(discrepancy, prev_discrepancy);
      sigma.resize(std::max(sigma.size(), prev.size() + m), 0);
      for (std::size_t j = 0; j < prev.size(); ++j)
        sigma[j + m] = gf::add(sigma[j + m], gf::mul(scale, prev[j]));
      errors = i + 1 - errors;
      prev = std::move(saved);
      prev_discrepancy = discrepancy;
      m = 1;
    } else {
      const std::uint8_t scale = gf::div(discrepancy, prev_discrepancy);
      sigma.resize(std::max(sigma.size(), prev.size() + m), 0);
      for (std::size_t j = 0; j < prev.size(); ++j)
        sigma[j + m] = gf::add(sigma[j + m], gf::mul(scale, prev[j]));
      ++m;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const unsigned locator_degree = static_cast<unsigned>(sigma.size()) - 1;
  if (locator_degree == 0 || locator_degree > t2 / 2)
    return {DecodeStatus::kDetectedUncorrectable, 0};

  // --- Chien search over *all* 255 candidate degrees. Roots landing in the
  // shortened region (degree >= n) expose the error as uncorrectable. ---
  // The candidate point for degree d is X^-1 = alpha^(255 - d); instead of
  // recomputing it (and its mod-255 reduction) per iteration, walk it down
  // with one multiply by alpha^-1 per step.
  std::vector<unsigned> error_degrees;
  const std::uint8_t inv_alpha = gf::alpha_pow_unreduced(gf::kGroupOrder - 1);
  std::uint8_t x_inv = 1;  // alpha^255 == alpha^0, the degree-0 candidate
  for (unsigned degree = 0; degree < gf::kGroupOrder; ++degree) {
    // sigma has a root at X^-1 where X = alpha^degree.
    if (gf::poly_eval(sigma, x_inv) == 0) error_degrees.push_back(degree);
    x_inv = gf::mul(x_inv, inv_alpha);
  }
  if (error_degrees.size() != locator_degree)
    return {DecodeStatus::kDetectedUncorrectable, 0};
  for (const unsigned degree : error_degrees)
    if (degree >= n) return {DecodeStatus::kDetectedUncorrectable, 0};

  // --- Forney: omega(x) = S(x) * sigma(x) mod x^2t. ---
  std::vector<std::uint8_t> omega(t2, 0);
  for (unsigned i = 0; i < t2; ++i) {
    for (std::size_t j = 0; j < sigma.size() && j <= i; ++j)
      omega[i] = gf::add(omega[i], gf::mul(syndrome[i - j], sigma[j]));
  }
  // Formal derivative of sigma: in GF(2^m) only odd-degree terms survive.
  std::vector<std::uint8_t> sigma_deriv;
  for (std::size_t j = 1; j < sigma.size(); j += 2) {
    sigma_deriv.resize(j, 0);
    sigma_deriv[j - 1] = sigma[j];
  }
  // Compute all corrections before touching the buffer so a failed decode
  // leaves the codeword untouched.
  std::vector<std::pair<std::size_t, std::uint8_t>> corrections;
  corrections.reserve(error_degrees.size());
  for (const unsigned degree : error_degrees) {
    const std::uint8_t x = gf::alpha_pow(degree);
    const std::uint8_t x_inv_point = gf::inv(x);
    const std::uint8_t denom = gf::poly_eval(sigma_deriv, x_inv_point);
    if (denom == 0) return {DecodeStatus::kDetectedUncorrectable, 0};
    // First generator root is alpha^0 (b = 0), so the Forney multiplier is
    // X^(1-b) = X.
    const std::uint8_t magnitude =
        gf::mul(x, gf::div(gf::poly_eval(omega, x_inv_point), denom));
    corrections.emplace_back(n - 1 - degree, magnitude);
  }
  for (const auto& [index, magnitude] : corrections)
    codeword[index] = gf::add(codeword[index], magnitude);

  // Re-check syndromes: a consistent decode must produce a codeword.
  std::uint8_t check_buf[64];
  const std::span<std::uint8_t> check(check_buf, t2);
  syndromes(codeword, check);
  if (!std::all_of(check.begin(), check.end(),
                   [](std::uint8_t s) { return s == 0; })) {
    for (const auto& [index, magnitude] : corrections)
      codeword[index] = gf::add(codeword[index], magnitude);  // revert
    return {DecodeStatus::kDetectedUncorrectable, 0};
  }
  return {DecodeStatus::kCorrected,
          static_cast<unsigned>(error_degrees.size())};
}

}  // namespace rxl::rs
