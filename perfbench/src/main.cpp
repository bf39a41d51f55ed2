// perfbench_workloads: runs one benchmark workload and writes its raw
// measurements (samples, exact counts, spans, check failures) as JSON.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                       --out FILE [--socket PATH]
//
// perfbench/run.py builds and drives this binary; use that.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      out = value;
    } else if (key == "--socket") {
      options.socket_path = value;
    } else {
      std::fprintf(stderr, "perfbench_workloads: unknown option %s\n",
                   key.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || out.empty()) {
    std::fprintf(stderr, "perfbench_workloads: --workload and --out are required\n");
    return 2;
  }
  perfbench::Report report;
  try {
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
  if (!report.write_json(out)) {
    std::fprintf(stderr, "perfbench_workloads: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
