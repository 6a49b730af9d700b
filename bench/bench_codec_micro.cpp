// Codec microbenchmarks (google-benchmark): the datapath costs behind the
// simulator's fast paths and the hardware argument of §7.3.
#include <benchmark/benchmark.h>

#include <array>
#include <optional>
#include <vector>

#include "rxl/common/bytes.hpp"
#include "rxl/common/rng.hpp"
#include "rxl/crc/crc64.hpp"
#include "rxl/crc/isn_crc.hpp"
#include "rxl/gf256/gf256.hpp"
#include "rxl/flit/message_pack.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/rs/reed_solomon.hpp"
#include "rxl/transport/flit_codec.hpp"
#include "rxl/transport/traffic.hpp"

using namespace rxl;

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> data(size);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.bounded(256));
  return data;
}

void BM_Crc64_Bitwise(benchmark::State& state) {
  const auto data = random_bytes(242, 1);
  for (auto _ : state) benchmark::DoNotOptimize(crc::crc64_bitwise(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 242);
}
BENCHMARK(BM_Crc64_Bitwise);

void BM_Crc64_Table(benchmark::State& state) {
  const auto data = random_bytes(242, 2);
  const crc::Crc64& engine = crc::shared_crc64();
  for (auto _ : state) benchmark::DoNotOptimize(engine.compute(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 242);
}
BENCHMARK(BM_Crc64_Table);

void BM_Crc64_SliceBy8(benchmark::State& state) {
  const auto data = random_bytes(242, 3);
  const crc::Crc64& engine = crc::shared_crc64();
  for (auto _ : state) benchmark::DoNotOptimize(engine.compute_sliced(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 242);
}
BENCHMARK(BM_Crc64_SliceBy8);

// Streaming update over the flit's CRC spans: 242 B is the whole protected
// region (encode_plain), 240 B the payload IsnCrc streams after folding the
// sequence number into the state. The dispatched entry uses the PCLMULQDQ
// kernel where the CPU has it; the sliced entry is the scalar kernel on the
// same input.
void BM_Crc64_Update(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto data = random_bytes(size, 14);
  const crc::Crc64& engine = crc::shared_crc64();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.update(crc::Crc64::begin(), data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64_Update)->Arg(240)->Arg(242);

void BM_Crc64_UpdateSliced(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto data = random_bytes(size, 14);
  const crc::Crc64& engine = crc::shared_crc64();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.update_sliced(crc::Crc64::begin(), data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64_UpdateSliced)->Arg(240)->Arg(242);

void BM_IsnCrc_Encode(benchmark::State& state) {
  const auto data = random_bytes(242, 4);
  const crc::IsnCrc isn;
  std::uint16_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isn.encode(data, seq));
    seq = (seq + 1) & kSeqMask;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 242);
}
BENCHMARK(BM_IsnCrc_Encode);

void BM_Gf256_DotSpan(benchmark::State& state) {
  const auto weights = random_bytes(85, 22);
  const auto data = random_bytes(85, 23);
  for (auto _ : state)
    benchmark::DoNotOptimize(gf256::dot_span(weights, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 85);
}
BENCHMARK(BM_Gf256_DotSpan);

void BM_Rs_Syndromes(benchmark::State& state) {
  const rs::ReedSolomon code(83);
  auto codeword = random_bytes(85, 24);
  code.encode(std::span<const std::uint8_t>(codeword.data(), 83),
              std::span<std::uint8_t>(codeword.data() + 83, 2));
  std::uint8_t syn[2];
  for (auto _ : state) {
    code.syndromes(codeword, syn);
    benchmark::DoNotOptimize(syn);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 85);
}
BENCHMARK(BM_Rs_Syndromes);

void BM_Rs_Encode(benchmark::State& state) {
  const rs::ReedSolomon code(83);
  const auto data = random_bytes(83, 5);
  std::uint8_t parity[2];
  for (auto _ : state) {
    code.encode(data, parity);
    benchmark::DoNotOptimize(parity);
  }
}
BENCHMARK(BM_Rs_Encode);

void BM_Rs_DecodeClean(benchmark::State& state) {
  const rs::ReedSolomon code(83);
  auto codeword = random_bytes(85, 6);
  code.encode(std::span<const std::uint8_t>(codeword.data(), 83),
              std::span<std::uint8_t>(codeword.data() + 83, 2));
  for (auto _ : state) {
    auto copy = codeword;
    benchmark::DoNotOptimize(code.decode(copy));
  }
}
BENCHMARK(BM_Rs_DecodeClean);

void BM_Rs_DecodeSingleError(benchmark::State& state) {
  const rs::ReedSolomon code(83);
  auto codeword = random_bytes(85, 7);
  code.encode(std::span<const std::uint8_t>(codeword.data(), 83),
              std::span<std::uint8_t>(codeword.data() + 83, 2));
  for (auto _ : state) {
    auto copy = codeword;
    copy[17] ^= 0x42;
    benchmark::DoNotOptimize(code.decode(copy));
  }
}
BENCHMARK(BM_Rs_DecodeSingleError);

void BM_FlitFec_Encode(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 8);
  for (auto _ : state) {
    fec.encode(image);
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_Encode);

void BM_FlitFec_EncodeScalar(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 8);
  for (auto _ : state) {
    fec.encode_scalar(image);
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_EncodeScalar);

void BM_FlitFec_DecodeClean(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 12);
  fec.encode(image);
  for (auto _ : state) {
    auto copy = image;
    benchmark::DoNotOptimize(fec.decode(copy));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_DecodeClean);

void BM_FlitFec_DecodeCleanScalar(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 12);
  fec.encode(image);
  for (auto _ : state) {
    auto copy = image;
    benchmark::DoNotOptimize(fec.decode_scalar(copy));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_DecodeCleanScalar);

void BM_FlitFec_DecodeBurst(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 13);
  fec.encode(image);
  for (auto _ : state) {
    auto copy = image;
    copy[60] ^= 0x7B;  // 3-byte wire burst: one error in every lane
    copy[61] ^= 0x1F;
    copy[62] ^= 0xC4;
    benchmark::DoNotOptimize(fec.decode(copy));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_DecodeBurst);

void BM_FlitFec_DecodeCorrupted(benchmark::State& state) {
  const rs::FlitFec fec;
  auto image = random_bytes(kFlitBytes, 9);
  fec.encode(image);
  for (auto _ : state) {
    auto copy = image;
    copy[100] ^= 0x01;
    benchmark::DoNotOptimize(fec.decode(copy));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kFlitBytes);
}
BENCHMARK(BM_FlitFec_DecodeCorrupted);

void BM_FlitCodec_EncodeData(benchmark::State& state) {
  const transport::FlitCodec codec(state.range(0) == 0
                                       ? transport::Protocol::kCxl
                                       : transport::Protocol::kRxl);
  const auto payload = random_bytes(kPayloadBytes, 10);
  std::uint16_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode_data(payload, seq, std::nullopt));
    seq = (seq + 1) & kSeqMask;
  }
}
BENCHMARK(BM_FlitCodec_EncodeData)->Arg(0)->Arg(1);

void BM_FlitCodec_CheckData(benchmark::State& state) {
  const transport::FlitCodec codec(transport::Protocol::kRxl);
  const auto payload = random_bytes(kPayloadBytes, 11);
  const flit::Flit encoded = codec.encode_data(payload, 5, std::nullopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.check_data(encoded, 5));
  }
}
BENCHMARK(BM_FlitCodec_CheckData);

// The fabric sources' per-flit payload fill, written in place (into the
// retry slot in a run): 30 little-endian word stores from an inline
// xoshiro256** seeded per position. Scoreboards regenerate it once per
// delivery to check the payload.
void BM_FillStreamPayload(benchmark::State& state) {
  std::array<std::uint8_t, kPayloadBytes> payload{};
  std::uint64_t index = 0;
  for (auto _ : state) {
    transport::fill_stream_payload(index, 1, payload);
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
    ++index;
  }
}
BENCHMARK(BM_FillStreamPayload);

void BM_MessagePack_RoundTrip(benchmark::State& state) {
  std::vector<flit::PackedMessage> messages;
  for (std::uint16_t i = 0; i < flit::kSlotsPerFlit; ++i)
    messages.push_back({flit::MessageKind::kData, i, i});
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (auto _ : state) {
    flit::pack_messages(messages, payload);
    benchmark::DoNotOptimize(flit::unpack_messages(payload));
  }
}
BENCHMARK(BM_MessagePack_RoundTrip);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record which kernels the dispatched entries measured on this CPU.
  benchmark::AddCustomContext("crc64_kernel", crc::Crc64::kernel_name());
  benchmark::AddCustomContext("flit_fec_kernel", rs::FlitFec::kernel_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
