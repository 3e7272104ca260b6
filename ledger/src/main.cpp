// bdps_ledger: runs one benchmark workload and prints one JSON report.
//
//   bdps_ledger --workload <paper|scale_free_p4|storm_repair|live_cluster>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--scale full|tiny] [--part <i>] [--spans <path>]
//               [--git-commit <rev>] [--source-digest <hex>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
// both run the workload's output checks.  ledger/run.py builds this binary
// and turns its report into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "fingerprint.h"
#include "runs.h"
#include "spans.h"

namespace {

using ledger::Options;

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      options.scale =
          value == "tiny" ? ledger::Scale::kTiny : ledger::Scale::kFull;
    } else if (key == "--part") {
      options.part = std::atoi(value.c_str());
    } else if (key == "--spans") {
      options.spans_path = value;
    } else if (key == "--git-commit") {
      options.git_commit = value;
    } else if (key == "--source-digest") {
      options.source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0 &&
         options.part >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: bdps_ledger --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny] "
                 "[--part <i>] [--spans <path>] [--git-commit <rev>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  try {
    ledger::Report report;
    ledger::Spans spans;
    if (options.workload == "live_cluster") {
      ledger::run_live_workload(options, report, spans);
    } else {
      ledger::run_sim_workload(options, report, spans);
    }
    const std::string fingerprint = ledger::fingerprint_json(options);
    if (!options.spans_path.empty() &&
        !spans.write(options.spans_path, fingerprint)) {
      std::fprintf(stderr, "bdps_ledger: cannot write %s\n",
                   options.spans_path.c_str());
      return 1;
    }
    std::printf("%s\n", report.json(fingerprint).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bdps_ledger: %s\n", e.what());
    return 1;
  }
}
