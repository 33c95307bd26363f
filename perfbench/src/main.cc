// perfbench: runs one workload of the repo benchmark and prints its
// metrics. Usually started by run.py; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints "# "-prefixed info lines, then one JSON result line. Exits 0 when
// the run completed (the result's "correct" field reports the checks), 2 on
// a usage error.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runner.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') return Usage("bad value for " + flag);
  }
  const std::vector<std::string>& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  const perfbench::RunReport report = perfbench::RunWorkload(options);
  for (const std::string& line : report.info) std::cout << "# " << line << "\n";
  std::cout << perfbench::ResultJson(report) << std::endl;
  return 0;
}
