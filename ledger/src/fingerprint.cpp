#include "fingerprint.h"

#include <sched.h>

#include <fstream>
#include <thread>

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_CXX_FLAGS
#define LEDGER_CXX_FLAGS "unknown"
#endif

namespace ledger {

namespace {

/// Value of the first "key : value" line of /proc/cpuinfo ("" if absent).
std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string head = line.substr(0, colon);
    while (!head.empty() && (head.back() == ' ' || head.back() == '\t')) {
      head.pop_back();
    }
    if (head != key) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string fingerprint_json(const Options& options) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(usable);
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_string(cpuinfo_field("model name"));
  out += ", \"cpu_flags\": " + json_string(cpuinfo_field("flags"));
  out += ", \"compiler\": " + json_string(compiler());
  out += ", \"build_type\": " + json_string(LEDGER_BUILD_TYPE);
  out += ", \"cxx_flags\": " + json_string(LEDGER_CXX_FLAGS);
  out += ", \"git_commit\": " + json_string(options.git_commit);
  out += ", \"source_digest\": " + json_string(options.source_digest);
  out += ", \"workload\": " + json_string(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + json_number(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"part\": " + std::to_string(options.part);
  out += ", \"scale\": " +
         json_string(options.scale == Scale::kTiny ? "tiny" : "full");
  return out + "}";
}

}  // namespace ledger
