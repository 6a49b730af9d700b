// rxl-lint golden fixture: must trigger R6 exactly once when scanned with
// --treat-as <a switchdev/ or link/ file, or the transport endpoint>. A
// std::deque in the relay data path grows without bound the moment an
// egress stalls — exactly the overload the credit windows exist to
// prevent — and node-allocates per flit besides. Relay queues are
// RingQueue (fixed ring, externally sized); a container that is bounded
// some other way must say so in an allow(R6) comment. The free_list member
// below must NOT fire: only the std:: container names are queue types.
#include <cstdint>
#include <deque>

struct PendingFlit {
  std::uint64_t truth_index;
};

struct EgressPort {
  std::deque<PendingFlit> pending;
  int free_list[4];
};
