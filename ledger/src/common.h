// Shared plumbing of the benchmark binary: clocks, process counters,
// sample statistics and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// User + system CPU seconds of this process so far (all threads).
double process_cpu_s();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Machine-wide CPU time from /proc/stat, in clock ticks: time the vCPUs
/// were busy (stolen time included) and time the hypervisor ran something
/// else on them while they had work (steal).  Zero when unreadable.
struct HostTicks {
  double busy = 0.0;
  double steal = 0.0;
};
HostTicks host_ticks();

/// A timing with the hypervisor's share taken out: `wall_s` scaled by the
/// share of busy vCPU time between `from` and `to` that was not stolen.
/// On a shared host steal comes and goes with other tenants' load and
/// stretches every wall time by the stolen share; it is not the program's.
/// Spans under one busy vCPU-second are returned as measured: /proc/stat
/// counts in 10 ms ticks, too coarse to split them.
double unstolen_s(double wall_s, const HostTicks& from, const HostTicks& to);

/// Times one call: its wall seconds with stolen time taken out.
template <typename Fn>
double time_unstolen(Fn&& fn) {
  const HostTicks h0 = host_ticks();
  const auto t0 = Clock::now();
  fn();
  const double wall_s = ms_between(t0, Clock::now()) / 1000.0;
  return unstolen_s(wall_s, h0, host_ticks());
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.  Sorts
/// `values` in place.
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// Which sizes a run uses: the measured workloads or the seconds-long
/// self-check of the same code paths.
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Which of the run's processes this is.  ledger/run.py splits an
  /// untraced run into several processes, so samples cover several memory
  /// placements and host states; part 0 also takes the workload's
  /// deterministic delay sample.
  int part = 0;
  /// Where spans are written at exit ("" = not written).
  std::string spans_path;
  /// Provenance passed in by the launcher (git commit or "unknown").
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

/// Metrics, output checks and counts of one run, rendered as JSON.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void note(const std::string& key, double value);

  /// Operations of the run: (message, interested subscriber) pairs offered.
  /// Pairs of a run whose output check failed count as failed.
  void add_pairs(std::uint64_t attempted, bool run_ok);

  std::string json(const std::string& fingerprint_json) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> checks_json_;
  std::map<std::string, std::string> notes_json_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_string(const std::string& raw);
std::string json_number(double value);

}  // namespace ledger
