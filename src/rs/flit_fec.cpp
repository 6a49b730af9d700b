#include "rxl/rs/flit_fec.hpp"

#include <cassert>

#include "rxl/gf256/gf256.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define RXL_FLIT_FEC_GFNI 1
#endif

namespace rxl::rs {

// The whole 256 B wire image is 3-way byte-interleaved: wire byte j belongs
// to lane j % 3. This covers the parity bytes too — lane 0's codeword is
// flit[0,3,...,249] plus parity at flit[252,255], lane 1 is flit[1,...,247]
// plus flit[250,253], lane 2 is flit[2,...,248] plus flit[251,254] — so ANY
// contiguous wire burst of up to 3 bytes lands at most once per lane, the
// property §2.5's correction claim rests on.
//
// Because lane L's codeword symbol b sits at wire byte L + 3*b (parity
// included), both encode and decode run *in place* on the wire image: the
// scalar kernels use the strided ReedSolomon entry points, the vector
// kernel weights every wire byte by its own lane's syndrome weight. No
// gather/scatter copies exist on any path. Decode screens all lanes'
// syndromes first; lanes with zero syndromes are untouched, and a dirty
// lane's single-error verdict maps straight back to a wire offset.

namespace {

namespace gf = rxl::gf256;

struct LaneCodes {
  ReedSolomon lane0{84};    ///< k = 84 (sub-block 0)
  ReedSolomon lanes12{83};  ///< k = 83 (sub-blocks 1, 2)
};

const LaneCodes& lane_codes() {
  static const LaneCodes codes;
  return codes;
}

const ReedSolomon& lane_code(const LaneCodes& codes, std::size_t lane) {
  return lane == 0 ? codes.lane0 : codes.lanes12;
}

/// (S0, S1) of each lane, or over data bytes only: (D0, D1) for encode.
struct LaneFolds {
  std::uint8_t s0[3] = {};
  std::uint8_t s1[3] = {};
};

FecDecodeResult apply_verdicts(const LaneCodes& codes, const LaneFolds& syn,
                               std::span<std::uint8_t> flit) {
  FecDecodeResult result;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    if ((syn.s0[lane] | syn.s1[lane]) == 0) continue;  // clean lane
    const ReedSolomon::SingleVerdict verdict =
        lane_code(codes, lane).classify_single(syn.s0[lane], syn.s1[lane]);
    result.sub_block[lane] = verdict.status;
    if (verdict.status == DecodeStatus::kCorrected) {
      flit[lane + 3 * verdict.buffer_index] ^= verdict.magnitude;
      result.corrected_symbols += 1;
      if (result.status == DecodeStatus::kClean)
        result.status = DecodeStatus::kCorrected;
    } else {
      result.status = DecodeStatus::kDetectedUncorrectable;
    }
  }
  return result;
}

#if defined(RXL_FLIT_FEC_GFNI)

// Vector kernel: one AVX-512BW + GFNI pass over the four 64 B vectors of
// the wire image yields all six syndromes (or, over the data bytes only,
// the D0/D1 folds the closed-form encode needs).
//  1. gf2p8affineqb maps each byte into the AES field (gf256::to_aes).
//  2. gf2p8mulb multiplies it by its wire position's syndrome-1 weight
//     alpha^(n-1-b), pre-mapped into that field.
//  3. Three byte masks split the lanes; XOR reductions give each lane's S0
//     (from the raw bytes) and phi(S1), which the from_aes table maps back.

struct GfniTables {
  /// Wire byte L + 3b: to_aes(alpha^(n_L - 1 - b)).
  std::array<std::uint8_t, kFlitBytes> weights{};
  /// lane_masks[r][i] = 0xFF iff i % 3 == r; in vector v byte i is lane
  /// (v + i) % 3, so lane L of vector v uses mask (L - v) mod 3.
  std::array<std::array<std::uint8_t, 64>, 3> lane_masks{};
};

constexpr GfniTables build_gfni_tables() {
  GfniTables t;
  for (std::size_t j = 0; j < kFlitBytes; ++j) {
    const std::size_t lane = j % 3;
    const std::size_t n = FlitFec::sub_block_data_bytes(lane) + 2;
    t.weights[j] = gf::to_aes(gf::alpha_pow(static_cast<unsigned>(n - 1 - j / 3)));
  }
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t i = 0; i < 64; ++i)
      t.lane_masks[r][i] = (i % 3 == r) ? 0xFF : 0x00;
  return t;
}

alignas(64) constexpr GfniTables kGfni = build_gfni_tables();

// GCC 12 reports -Wuninitialized (-O3) or -Wmaybe-uninitialized (-O2)
// inside its own avx512fintrin.h for the intentionally undefined vector it
// starts _mm512_extracti64x4_epi64 / _mm512_castsi512_si256 from.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx512bw,gfni"))) inline std::uint8_t
xor_reduce(__m512i v) {
  const __m256i y = _mm256_xor_si256(_mm512_castsi512_si256(v),
                                     _mm512_extracti64x4_epi64(v, 1));
  const __m128i x = _mm_xor_si128(_mm256_castsi256_si128(y),
                                  _mm256_extracti128_si256(y, 1));
  std::uint64_t q = static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)) ^
                    static_cast<std::uint64_t>(
                        _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)));
  q ^= q >> 32;
  q ^= q >> 16;
  q ^= q >> 8;
  return static_cast<std::uint8_t>(q);
}

/// Lane folds over the wire image; `data_only` drops the 6 parity bytes.
__attribute__((target("avx512f,avx512bw,gfni"))) LaneFolds lane_folds_gfni(
    const std::uint8_t* flit, bool data_only) {
  const __m512i to_aes_matrix = _mm512_set1_epi64(
      static_cast<long long>(gf::to_aes_affine_matrix()));
  __m512i mask[3];
  for (int r = 0; r < 3; ++r)
    mask[r] = _mm512_load_si512(kGfni.lane_masks[static_cast<std::size_t>(r)].data());
  __m512i s0[3] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                   _mm512_setzero_si512()};
  __m512i s1[3] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                   _mm512_setzero_si512()};
  // a ^ (b & c) as a vpternlog immediate.
  constexpr int kXorAnd = 0x78;
  for (int v = 0; v < 4; ++v) {
    const std::uint8_t* p = flit + 64 * v;
    const __m512i bytes =
        (v == 3 && data_only)
            ? _mm512_maskz_loadu_epi8(~__mmask64{0} >> 6, p)
            : _mm512_loadu_si512(p);
    const __m512i weighted = _mm512_gf2p8mul_epi8(
        _mm512_gf2p8affine_epi64_epi8(bytes, to_aes_matrix, 0),
        _mm512_load_si512(kGfni.weights.data() + 64 * v));
    for (int lane = 0; lane < 3; ++lane) {
      const __m512i m = mask[(lane - v + 6) % 3];
      s0[lane] = _mm512_ternarylogic_epi64(s0[lane], bytes, m, kXorAnd);
      s1[lane] = _mm512_ternarylogic_epi64(s1[lane], weighted, m, kXorAnd);
    }
  }
  LaneFolds out;
  for (int lane = 0; lane < 3; ++lane) {
    out.s0[lane] = xor_reduce(s0[lane]);
    out.s1[lane] = gf::from_aes(xor_reduce(s1[lane]));
  }
  return out;
}

#pragma GCC diagnostic pop

/// Read once: the CPU does not change under a running process.
bool cpu_has_gfni() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("gfni") != 0;
  }();
  return has;
}

#endif

}  // namespace

void FlitFec::encode(std::span<std::uint8_t> flit) const {
#if defined(RXL_FLIT_FEC_GFNI)
  if (cpu_has_gfni()) {
    assert(flit.size() == kFlitBytes);
    const LaneFolds folds = lane_folds_gfni(flit.data(), /*data_only=*/true);
    for (std::size_t lane = 0; lane < 3; ++lane) {
      ReedSolomon::parity2_from_folds(
          folds.s0[lane], folds.s1[lane],
          flit.data() + lane + 3 * sub_block_data_bytes(lane), 3);
    }
    return;
  }
#endif
  encode_scalar(flit);
}

void FlitFec::encode_scalar(std::span<std::uint8_t> flit) const {
  assert(flit.size() == kFlitBytes);
  const LaneCodes& codes = lane_codes();
  for (std::size_t lane = 0; lane < 3; ++lane)
    lane_code(codes, lane).encode_strided(flit.data() + lane, 3);
}

FecDecodeResult FlitFec::decode(std::span<std::uint8_t> flit) const {
#if defined(RXL_FLIT_FEC_GFNI)
  if (cpu_has_gfni()) {
    assert(flit.size() == kFlitBytes);
    return apply_verdicts(lane_codes(),
                          lane_folds_gfni(flit.data(), /*data_only=*/false),
                          flit);
  }
#endif
  return decode_scalar(flit);
}

FecDecodeResult FlitFec::decode_scalar(std::span<std::uint8_t> flit) const {
  assert(flit.size() == kFlitBytes);
  const LaneCodes& codes = lane_codes();
  LaneFolds syn;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    std::uint8_t lane_syn[2];
    lane_code(codes, lane).syndromes_strided(flit.data() + lane, 3, lane_syn);
    syn.s0[lane] = lane_syn[0];
    syn.s1[lane] = lane_syn[1];
  }
  return apply_verdicts(codes, syn, flit);
}

const char* FlitFec::kernel_name() noexcept {
#if defined(RXL_FLIT_FEC_GFNI)
  if (cpu_has_gfni()) return "avx512bw+gfni";
#endif
  return "scalar";
}

}  // namespace rxl::rs
