// rxl-lint golden fixture: must trigger R3 exactly once when scanned with
// --treat-as <a hot-path file>. make_unique_for_overwrite allocates just
// as make_unique does, though a whole-word match on make_unique misses it.
#include <array>
#include <cstdint>
#include <memory>

struct Block {
  std::array<std::uint8_t, 840> bytes;
};

std::unique_ptr<Block> fresh_block() {
  return std::make_unique_for_overwrite<Block>();
}
