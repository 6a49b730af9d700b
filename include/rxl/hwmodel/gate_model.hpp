// Gate-level cost model of the CRC datapath (paper §7.3).
//
// The paper argues ISN's hardware overhead is ~10 XOR gates and one level
// of logic at both the encoder and decoder, while *removing* the 10-bit
// SeqNum/ESeqNum comparator the explicit scheme needs. This module derives
// those numbers from the actual CRC linear algebra (via crc::CrcMatrix)
// rather than asserting them: a parallel CRC circuit for an N-bit message
// is 64 XOR trees whose fan-ins are the matrix row weights.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rxl::hwmodel {

/// Cost of one combinational XOR-tree network.
struct XorNetworkCost {
  std::size_t xor_gates = 0;   ///< total 2-input XOR gates
  std::size_t logic_depth = 0; ///< deepest tree, in gate levels
  std::size_t max_fanin = 0;   ///< widest output bit
};

/// Cost summary for a CRC encode/decode datapath option.
struct CrcDatapathCost {
  XorNetworkCost crc_network;     ///< the CRC XOR forest itself
  std::size_t isn_fold_gates = 0; ///< input-stage XORs folding the SeqNum
  std::size_t isn_extra_depth = 0;
  std::size_t comparator_gates = 0;  ///< SeqNum==ESeqNum comparator (XNOR+AND)
  std::size_t comparator_depth = 0;
  [[nodiscard]] std::size_t total_gates() const noexcept {
    return crc_network.xor_gates + isn_fold_gates + comparator_gates;
  }
};

/// Cost of the parallel CRC-64 network for a message of `message_bits` bits
/// (computed from the real CRC matrix; O(message_bits) CRC evaluations).
[[nodiscard]] XorNetworkCost crc_network_cost(std::size_t message_bits);

/// Baseline CXL datapath: plain CRC network + a 10-bit equality comparator
/// at the receiver (SeqNum vs ESeqNum).
[[nodiscard]] CrcDatapathCost baseline_datapath_cost(std::size_t message_bits,
                                                     unsigned seq_bits = 10);

/// ISN/RXL datapath: CRC network + seq_bits input XOR gates, one extra
/// level of depth, no comparator.
[[nodiscard]] CrcDatapathCost isn_datapath_cost(std::size_t message_bits,
                                                unsigned seq_bits = 10);

}  // namespace rxl::hwmodel
