// The benchmark's three workloads. Each builds its inputs from the seed,
// times set-up and passes from outside the library, checks every output and
// records raw samples into a Report. perfbench/README.md describes them.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed-pass budget of the run
  bool trace = false;     ///< interleave traced passes and record spans
  std::string socket_path = "perfbench.sock";  ///< service_mix only
};

/// Runs `options.workload` into `report`. Throws std::invalid_argument for
/// an unknown workload name.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench
