// perfbench: the EuroChip flow-job benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about <s> seconds, checks every output, prints
// per-job rows and a summary, and ends stdout with one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit code 0 means the run finished, whether or not the checks passed
// (the JSON's "correct" says that); a usage error exits with 2.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "catalog_serial|sized_serial|hub_resubmit|fed_skewed "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 != 1 || !have_workload) return usage("missing arguments");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Report report;
  if (args.workload == "catalog_serial") {
    perfbench::run_serial(args, 1, report);
  } else if (args.workload == "sized_serial") {
    perfbench::run_serial(args, 4, report);
  } else if (args.workload == "hub_resubmit") {
    perfbench::run_hub_resubmit(args, report);
  } else if (args.workload == "fed_skewed") {
    perfbench::run_fed_skewed(args, report);
  } else {
    return usage("unknown workload");
  }
  report.print_json(std::cout, args.trace ? perfbench::kPerLayer
                                          : perfbench::kEndToEnd);
  return 0;
}
