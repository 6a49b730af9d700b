// Pins a plan_dag rejection to its exact message, so each validation rule
// is tested by the rule that fires and not merely by a throw: a config
// that trips an earlier rule than the one its test names fails.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "rxl/transport/dag_fabric.hpp"

namespace rxl::transport {

/// plan_dag must reject `config` with a std::invalid_argument whose what()
/// is exactly `what`.
inline void expect_plan_rejects(const DagConfig& config,
                                const std::string& what) {
  try {
    (void)plan_dag(config);
    ADD_FAILURE() << "plan_dag accepted the config; expected: " << what;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), what);
  }
}

}  // namespace rxl::transport
