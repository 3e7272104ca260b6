#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ledger {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

HostTicks host_ticks() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return {};
  unsigned long long f[8] = {};
  const int read =
      std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]);
  std::fclose(file);
  if (read != 8) return {};
  HostTicks ticks;
  ticks.busy = static_cast<double>(f[0] + f[1] + f[2] + f[5] + f[6] + f[7]);
  ticks.steal = static_cast<double>(f[7]);
  return ticks;
}

double unstolen_s(double wall_s, const HostTicks& from, const HostTicks& to) {
  constexpr double kMinBusyTicks = 100.0;
  const double busy = to.busy - from.busy;
  const double steal = to.steal - from.steal;
  if (busy < kMinBusyTicks || steal <= 0.0) return wall_s;
  return wall_s * (1.0 - std::min(steal / busy, 1.0));
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) correct_ = false;
  std::string entry = "{\"name\": " + json_string(name) +
                      ", \"ok\": " + (ok ? "true" : "false");
  if (!detail.empty()) entry += ", \"detail\": " + json_string(detail);
  checks_json_.push_back(entry + "}");
}

void Report::note(const std::string& key, double value) {
  notes_json_[key] = json_number(value);
}

void Report::add_pairs(std::uint64_t attempted, bool run_ok) {
  attempted_ += attempted;
  if (!run_ok) failed_ += attempted;
}

std::string Report::json(const std::string& fingerprint_json) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(correct_ ? failed_ : attempted_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_json_.size(); ++i) {
    if (i > 0) out += ", ";
    out += checks_json_[i];
  }
  out += "], \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_json_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + value;
  }
  out += "}, \"fingerprint\": " + fingerprint_json + "}";
  return out;
}

}  // namespace ledger
