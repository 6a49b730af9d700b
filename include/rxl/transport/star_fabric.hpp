// Scale-out star fabric configuration: N host/device pairs sharing one
// multi-port switch.
//
// This is the paper's title scenario — multiple processors communicating
// across a shared switching device — in its smallest non-trivial form.
// make_star_dag (dag_fabric.hpp) builds it as a one-hub DagFabric
// topology: every flit of every pair crosses the shared hub, so contention
// and error handling are shared while one pair's drops never perturb
// another pair's ordering (a property the tests pin).
#pragma once

#include <cstddef>
#include <cstdint>

#include "rxl/transport/config.hpp"

namespace rxl::transport {

struct StarConfig {
  ProtocolConfig protocol;
  std::size_t pairs = 4;
  double ber = 0.0;
  double burst_injection_rate = 0.0;
  std::uint64_t seed = 1;
  std::uint64_t flits_per_direction = 0;  ///< per pair, per direction
  TimePs horizon = 0;
};

}  // namespace rxl::transport
