#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "experiment/runner.h"
#include "replay.h"
#include "runs.h"
#include "workloads.h"

namespace ledger {

using namespace bdps;

namespace {

bool same_result(const SimResult& a, const SimResult& b) {
  return a.published == b.published && a.receptions == b.receptions &&
         a.deliveries == b.deliveries &&
         a.valid_deliveries == b.valid_deliveries &&
         a.total_interested == b.total_interested &&
         a.delivery_rate == b.delivery_rate && a.earning == b.earning &&
         a.potential_earning == b.potential_earning &&
         a.purged_expired == b.purged_expired &&
         a.purged_hopeless == b.purged_hopeless &&
         a.lost_copies == b.lost_copies &&
         a.mean_valid_delay_ms == b.mean_valid_delay_ms &&
         a.end_time == b.end_time;
}

/// Eq. 1/2 accounting of one result; "" when it holds.
std::string accounting_error(const SimResult& r) {
  if (r.published == 0) return "nothing published";
  if (r.valid_deliveries > r.deliveries) return "valid > deliveries";
  if (r.valid_deliveries > r.total_interested) return "valid > interested";
  if (r.earning > r.potential_earning * (1.0 + 1e-12)) {
    return "earning > potential earning";
  }
  const double expected =
      r.total_interested == 0
          ? 0.0
          : static_cast<double>(r.valid_deliveries) /
                static_cast<double>(r.total_interested);
  if (std::fabs(r.delivery_rate - expected) > 1e-12) {
    return "delivery_rate != valid / interested";
  }
  return "";
}

std::string run_label(const SimConfig& config) {
  return strategy_name(config.strategy) + "/" +
         scenario_name(config.workload.scenario) + " seed " +
         std::to_string(config.seed);
}

/// Records publish instants and every delivery's publish->deliver delay.
class DelaySink final : public TraceSink {
 public:
  void record(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kPublish) {
      const auto id = static_cast<std::size_t>(event.message);
      if (publish_time_.size() <= id) publish_time_.resize(id + 1, 0.0);
      publish_time_[id] = event.time;
    } else if (event.kind == TraceEventKind::kDeliver) {
      delays_.push_back(event.time -
                        publish_time_[static_cast<std::size_t>(event.message)]);
    }
  }
  std::vector<double>& delays() { return delays_; }

 private:
  std::vector<TimeMs> publish_time_;
  std::vector<double> delays_;
};

/// One timed run_simulation call.
SimResult timed_run(const SimConfig& config, TraceSink* sink, double& wall_s,
                    double& cpu_s) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  SimResult result = run_simulation(config, sink);
  wall_s = ms_between(t0, Clock::now()) / 1000.0;
  cpu_s = process_cpu_s() - cpu0;
  return result;
}

/// FNV-1a over the fields same_result compares, cut to 48 bits so the
/// report's JSON number holds it exactly.  ledger/run.py compares it across
/// the processes of a run.
double result_digest(const std::vector<SimResult>& results) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const auto& field) {
    unsigned char bytes[sizeof(field)];
    std::memcpy(bytes, &field, sizeof(field));
    for (const unsigned char b : bytes) {
      hash = (hash ^ b) * 1099511628211ull;
    }
  };
  for (const SimResult& r : results) {
    mix(r.published);
    mix(r.receptions);
    mix(r.deliveries);
    mix(r.valid_deliveries);
    mix(r.total_interested);
    mix(r.delivery_rate);
    mix(r.earning);
    mix(r.potential_earning);
    mix(r.purged_expired);
    mix(r.purged_hopeless);
    mix(r.lost_copies);
    mix(r.mean_valid_delay_ms);
    mix(r.end_time);
  }
  return static_cast<double>(hash & ((std::uint64_t{1} << 48) - 1));
}

/// World builds of every config, repeated; returns the median build time.
double measure_setup(const std::vector<SimConfig>& configs, Spans& spans) {
  std::vector<double> samples;
  double total = 0.0;
  // At least one build; cheap worlds repeat until a quarter second is
  // spent.  ledger/run.py reports the median over the run's processes.
  while (samples.empty() || (total < 0.25 && samples.size() < 15)) {
    const int run = static_cast<int>(samples.size());
    ScopedSpan span(spans, "setup", Spans::kNoParent, run);
    samples.push_back(time_unstolen([&configs] {
      for (const SimConfig& config : configs) {
        const World world = build_world(config);
      }
    }));
    total += samples.back();
  }
  return median(samples);
}

void check_accounting(const std::vector<SimConfig>& configs,
                      const std::vector<SimResult>& results, Report& report,
                      bool repeat_ok) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string error = accounting_error(results[i]);
    report.check("eq1_eq2_accounting " + run_label(configs[i]), error.empty(),
                 error);
    report.add_pairs(results[i].total_interested, error.empty() && repeat_ok);
  }
}

void run_untraced(const Options& options,
                  const std::vector<SimConfig>& configs, Report& report,
                  Spans& spans) {
  report.metric("setup_s", measure_setup(configs, spans), "s");

  // Part 0 starts with the only traced pass: it records every delivery
  // delay, which depends on the seed alone, and is not timed.  In the other
  // parts the setup builds are the warm-up, and the first timed pass is the
  // reference the later ones must repeat.
  std::vector<SimResult> reference;
  DelaySink delays;
  const bool lead = options.part == 0;
  if (lead) {
    ScopedSpan warm(spans, "warmup", Spans::kNoParent, 0);
    for (const SimConfig& config : configs) {
      reference.push_back(run_simulation(config, &delays));
    }
  }

  std::vector<double> walls;
  std::vector<double> raw_walls;
  bool repeat_ok = true;
  const auto start = Clock::now();
  while (walls.empty() ||
         ms_between(start, Clock::now()) < options.seconds * 1000.0) {
    const int run = static_cast<int>(walls.size()) + 1;
    ScopedSpan pass(spans, "workload_pass", Spans::kNoParent, run);
    const HostTicks ticks = host_ticks();
    double wall_sum = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      double wall = 0.0;
      double cpu = 0.0;
      const auto t0 = Clock::now();
      const SimResult result = timed_run(configs[i], nullptr, wall, cpu);
      spans.add("run_simulation " + run_label(configs[i]), t0, Clock::now(),
                pass.id(), run);
      wall_sum += wall;
      if (reference.size() <= i) {
        reference.push_back(result);
      } else if (!same_result(result, reference[i])) {
        repeat_ok = false;
      }
    }
    raw_walls.push_back(wall_sum);
    walls.push_back(unstolen_s(wall_sum, ticks, host_ticks()));
  }
  const std::size_t compared = walls.size() + (lead ? 1 : 0);
  report.check("results_repeat_bitwise_per_seed", repeat_ok,
               std::to_string(compared) + " passes compared");
  check_accounting(configs, reference, report, repeat_ok);

  double earning = 0.0;
  double potential = 0.0;
  double valid = 0.0;
  double interested = 0.0;
  double deliveries = 0.0;
  for (const SimResult& r : reference) {
    earning += r.earning;
    potential += r.potential_earning;
    valid += static_cast<double>(r.valid_deliveries);
    interested += static_cast<double>(r.total_interested);
    deliveries += static_cast<double>(r.deliveries);
  }
  report.metric("sim_wall_s", median(walls), "s");
  report.metric("earning_ratio", potential > 0.0 ? earning / potential : 0.0,
                "ratio");
  report.metric("delivery_rate", interested > 0.0 ? valid / interested : 0.0,
                "ratio");
  // The simulator is its own reference: it keeps all of its earning.
  report.metric("live_earning_retained", 1.0, "ratio");
  if (lead) {
    report.check("delay_sample_covers_every_delivery",
                 static_cast<double>(delays.delays().size()) == deliveries);
    // Publish->deliver delay of every delivery, in the model's ms.
    report.metric("deliver_p50_ms", percentile(delays.delays(), 0.50), "ms");
    report.metric("deliver_p99_ms", percentile(delays.delays(), 0.99), "ms");
    report.note("deliver_samples",
                static_cast<double>(delays.delays().size()));
  }
  report.note("timed_passes", static_cast<double>(walls.size()));
  report.note("sim_wall_as_measured_s", median(raw_walls));
  report.note("result_digest", result_digest(reference));
}

}  // namespace

void measure_sim_layers(const std::vector<SimConfig>& configs, double budget_s,
                        Report& report, Spans& spans) {
  ReplayStats stats;
  double topology_ms = 0.0;
  double generate_ms = 0.0;
  double fabric_ms = 0.0;
  double table_rows = 0.0;
  double max_table_rows = 0.0;
  double events = 0.0;
  double enqueues = 0.0;
  double sends = 0.0;
  double purges = 0.0;
  double valid = 0.0;
  double lost = 0.0;
  bool exact_replay = true;
  bool traced_same = true;
  std::vector<SimResult> reference;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> cpus;

  const auto start = Clock::now();
  // Pass 0 also replays, so the timings come from the later passes; at
  // least two passes run.
  for (int pass = 0;
       pass < 2 || ms_between(start, Clock::now()) < budget_s * 1000.0;
       ++pass) {
    double wall_u = 0.0;
    double wall_t = 0.0;
    double cpu_u = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const SimConfig& config = configs[i];
      double wall = 0.0;
      double cpu = 0.0;
      auto t0 = Clock::now();
      const SimResult untraced = timed_run(config, nullptr, wall, cpu);
      spans.add("run_simulation " + run_label(config), t0, Clock::now(),
                Spans::kNoParent, pass);
      wall_u += wall;
      cpu_u += cpu;

      RecordingSink sink;
      t0 = Clock::now();
      const SimResult traced = timed_run(config, &sink, wall, cpu);
      const int traced_span = static_cast<int>(spans.size());
      spans.add("run_simulation.traced " + run_label(config), t0,
                Clock::now(), Spans::kNoParent, pass);
      wall_t += wall;
      if (!same_result(untraced, traced)) traced_same = false;
      if (pass > 0) {
        if (!same_result(untraced, reference[i])) traced_same = false;
        continue;
      }
      reference.push_back(untraced);

      ScopedSpan layers(spans, "layer_replay " + run_label(config),
                        traced_span, pass);
      World world = build_world(config);
      topology_ms += world.topology_ms;
      generate_ms += world.generate_ms;
      fabric_ms += world.fabric_ms;
      for (std::size_t b = 0; b < world.fabric->broker_count(); ++b) {
        const double rows = static_cast<double>(
            world.fabric->table(static_cast<BrokerId>(b)).size());
        table_rows += rows;
        max_table_rows = std::max(max_table_rows, rows);
      }
      replay(config, world, sink.events(), stats);
      events += static_cast<double>(sink.events().size());
      enqueues += static_cast<double>(sink.count(TraceEventKind::kEnqueue));
      sends += static_cast<double>(sink.count(TraceEventKind::kSendStart));
      purges += static_cast<double>(sink.count(TraceEventKind::kPurge));
      valid += static_cast<double>(sink.valid_deliveries());
      lost += static_cast<double>(untraced.lost_copies);
      if (config.online_estimation || config.random_link_failures > 0 ||
          !config.faults.empty()) {
        exact_replay = false;
      }
    }
    untraced_walls.push_back(wall_u);
    traced_walls.push_back(wall_t);
    cpus.push_back(cpu_u);
  }

  report.check("traced_results_equal_untraced", traced_same);
  check_accounting(configs, reference, report, traced_same);
  report.check("fabric_matches_reference_index",
               stats.reference_mismatches == 0,
               std::to_string(stats.reference_mismatches) + " of " +
                   std::to_string(stats.match_ns.size()) + " calls differ");
  if (exact_replay) {
    report.check("replay_agrees_on_every_pick", stats.agreement() == 1.0,
                 "agreement " + json_number(stats.agreement()));
  }

  const auto later = [](const std::vector<double>& passes) {
    return median(std::vector<double>(passes.begin() + 1, passes.end()));
  };
  const double wall_u = later(untraced_walls);
  const double wall_t = later(traced_walls);
  const double cpu_u = later(cpus);
  const double calls = static_cast<double>(stats.match_ns.size());
  report.metric("topology.build_ms", topology_ms, "ms");
  report.metric("workload.generate_ms", generate_ms, "ms");
  report.metric("routing.fabric_build_ms", fabric_ms, "ms");
  report.metric("routing.table_rows", table_rows, "count");
  report.metric("routing.max_table_rows", max_table_rows, "count");
  report.metric("routing.repair_calls",
                static_cast<double>(stats.repair_calls), "count");
  report.metric("routing.repair_rows", static_cast<double>(stats.repair_rows),
                "count");
  report.metric("routing.repair_ms", stats.repair_ms, "ms");
  report.metric("matching.calls", calls, "count");
  report.metric("matching.busy_ms", stats.match_busy_ms, "ms");
  report.metric("matching.p50_ns", percentile(stats.match_ns, 0.50), "ns");
  report.metric("matching.p99_ns", percentile(stats.match_ns, 0.99), "ns");
  report.metric("matching.rows_per_call",
                calls > 0 ? static_cast<double>(stats.match_rows) / calls : 0.0,
                "rows");
  report.metric("matching.hit_share",
                calls > 0 ? static_cast<double>(stats.match_hits) / calls : 0.0,
                "ratio");
  report.metric("matching.reference_busy_ms", stats.reference_busy_ms, "ms");
  report.metric("matching.vs_reference",
                stats.reference_busy_ms > 0.0
                    ? stats.match_busy_ms / stats.reference_busy_ms
                    : 0.0,
                "x");
  report.metric("broker.process_calls",
                static_cast<double>(stats.process_calls), "count");
  report.metric("broker.process_busy_ms", stats.process_busy_ms, "ms");
  report.metric("broker.take_next_calls",
                static_cast<double>(stats.take_next_calls), "count");
  report.metric("broker.take_next_busy_ms", stats.take_next_busy_ms, "ms");
  report.metric("broker.replay_agreement", stats.agreement(), "ratio");
  report.metric("scheduling.enqueues", enqueues, "count");
  report.metric("scheduling.sends", sends, "count");
  report.metric("scheduling.purges", purges, "count");
  report.metric("scheduling.purge_share",
                enqueues > 0.0 ? purges / enqueues : 0.0, "ratio");
  report.metric("scheduling.valid_per_send", sends > 0.0 ? valid / sends : 0.0,
                "ratio");
  report.metric("scheduling.queue_depth_p99",
                percentile(stats.queue_depths, 0.99), "count");
  report.metric("sim.events", events, "count");
  report.metric("sim.cpu_s", cpu_u, "s");
  report.metric("sim.cpu_per_wall", wall_u > 0.0 ? cpu_u / wall_u : 0.0,
                "ratio");
  report.metric("sim.lost_copies", lost, "count");
  report.metric("sim.trace_overhead_pct",
                wall_u > 0.0 ? (wall_t - wall_u) / wall_u * 100.0 : 0.0, "%");
  report.note("layer_passes", static_cast<double>(untraced_walls.size()));
  report.note("replay_picks", static_cast<double>(stats.replay_picks));
  report.note("trace_sends", static_cast<double>(stats.trace_sends));
}

void report_no_live_layers(Report& report) {
  const std::pair<const char*, const char*> metrics[] = {
      {"runtime.publish_us_p99", "us"},  {"runtime.driver_lag_p50_ms", "ms"},
      {"runtime.driver_lag_p99_ms", "ms"}, {"runtime.drain_ms", "ms"},
      {"runtime.receptions", "count"},   {"runtime.purged", "count"},
      {"runtime.lost", "count"},         {"runtime.cpu_per_wall", "ratio"},
      {"net.trunk_forwards", "count"},   {"net.trunk_reconnects", "count"},
      {"net.encode_ns", "ns"},           {"net.parse_ns", "ns"},
      {"net.bytes_per_forward", "B"}};
  for (const auto& [name, unit] : metrics) report.metric(name, 0.0, unit);
}

void run_sim_workload(const Options& options, Report& report, Spans& spans) {
  const std::vector<SimConfig> configs =
      sim_workload_configs(options.workload, options.seed, options.scale);
  if (options.trace) {
    measure_sim_layers(configs, options.seconds, report, spans);
    report_no_live_layers(report);
  } else {
    run_untraced(options, configs, report, spans);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
}

}  // namespace ledger
