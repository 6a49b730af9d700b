// Test-only window into link::RetryBuffer's private state: how many blocks
// a buffer allocated because its thread's pool of released blocks was
// empty.
#pragma once

#include <cstdint>

#include "rxl/link/retry_buffer.hpp"

namespace rxl::link {

struct RetryBufferProbe {
  static std::uint64_t fresh_blocks(const RetryBuffer& buffer) {
    return buffer.fresh_blocks_;
  }
};

}  // namespace rxl::link
