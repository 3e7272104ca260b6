#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "experiment/runner.h"
#include "net/wire.h"
#include "runs.h"
#include "workloads.h"

namespace ledger {

using namespace bdps;

namespace {

/// One open-loop pass of the socket cluster over the whole schedule.
struct ClusterRun {
  double setup_s = 0.0;
  double drive_wall_s = 0.0;
  double drive_cpu_s = 0.0;
  double drain_ms = 0.0;
  /// Real ms each publish started after it was due, by message id.
  std::vector<double> lateness_ms;
  std::vector<double> publish_us;
  std::vector<LiveDelivery> deliveries;
  std::size_t published = 0;
  std::size_t valid = 0;
  std::size_t receptions = 0;
  std::size_t purged = 0;
  std::size_t lost = 0;
  double earning = 0.0;
  std::uint64_t trunk_forwards = 0;
  std::uint64_t trunk_reconnects = 0;
  /// (message << 32 | subscriber) of every interested, active pair.
  std::unordered_set<std::uint64_t> interested;
};

std::uint64_t pair_key(MessageId message, SubscriberId subscriber) {
  return (static_cast<std::uint64_t>(message) << 32) |
         static_cast<std::uint32_t>(subscriber);
}

ClusterRun run_cluster(const LiveRunConfig& config, bool want_interested,
                       bool span_publishes, Spans& spans, int run) {
  ClusterRun out;
  const int cluster_span = spans.begin("live_cluster", Spans::kNoParent, run);
  const int setup_span = spans.begin("setup", cluster_span, run);
  const auto setup_start = Clock::now();
  const LiveWorld world = build_live_world(config);
  const std::vector<std::uint32_t> broker_shard =
      live_broker_shards(world.topology.graph, config.shards);
  std::vector<std::unique_ptr<LiveNetwork>> instances;
  std::vector<LiveNetwork*> nets;
  std::vector<std::uint16_t> ports;
  const int shard_count = static_cast<int>(config.shards);
  for (int s = 0; s < shard_count; ++s) {
    instances.push_back(std::make_unique<LiveNetwork>(
        &world.topology, world.fabric.get(), world.strategy.get(),
        live_options_for(config, s, shard_count, broker_shard)));
    nets.push_back(instances.back().get());
    ports.push_back(instances.back()->trunk_port());
  }
  for (LiveNetwork* net : nets) net->connect_trunks(ports);
  for (LiveNetwork* net : nets) net->start();
  for (LiveNetwork* net : nets) {
    if (!net->wait_trunks(std::chrono::milliseconds(10000))) {
      for (LiveNetwork* n : nets) n->stop();
      throw std::runtime_error("live cluster: trunks failed to connect");
    }
  }
  out.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;
  spans.end(setup_span);

  // Open loop: each publish is paced to its generated instant on the
  // scaled clock, however late the cluster runs.
  const int drive_span = spans.begin("drive", cluster_span, run);
  const double cpu0 = process_cpu_s();
  const auto drive_start = Clock::now();
  const LiveClock& clock = nets.front()->clock();
  const double speedup = clock.speedup();
  out.lateness_ms.assign(world.messages.size(), 0.0);
  out.publish_us.reserve(world.messages.size());
  for (const auto& message : world.messages) {
    const TimeMs ahead = message->publish_time() - clock.now();
    if (ahead > 0.0) clock.sleep_for(ahead);
    const BrokerId home = world.topology.publisher_edges.at(
        static_cast<std::size_t>(message->publisher()));
    for (LiveNetwork* net : nets) {
      if (!net->serves(home)) continue;
      const auto p0 = Clock::now();
      const TimeMs sent_at = clock.now();
      net->publish(message->publisher(), *message, message->id());
      const auto p1 = Clock::now();
      out.lateness_ms[static_cast<std::size_t>(message->id())] =
          (sent_at - message->publish_time()) / speedup;
      out.publish_us.push_back(static_cast<double>(ns_between(p0, p1)) / 1e3);
      if (span_publishes) {
        spans.add("LiveNetwork::publish", p0, p1, drive_span, run);
      }
      ++out.published;
      break;
    }
  }
  const auto drain_start = Clock::now();
  const int drain_span = spans.begin("drain", cluster_span, run);
  drain_live_cluster(nets);
  spans.end(drain_span);
  const auto drive_end = Clock::now();
  out.drain_ms = ms_between(drain_start, drive_end);
  out.drive_wall_s = ms_between(drive_start, drive_end) / 1000.0;
  out.drive_cpu_s = process_cpu_s() - cpu0;
  spans.end(drive_span);
  for (LiveNetwork* net : nets) net->stop();
  spans.end(cluster_span);

  for (const LiveNetwork* net : nets) {
    const LiveStats& stats = net->stats();
    const std::vector<LiveDelivery> local = stats.deliveries();
    out.deliveries.insert(out.deliveries.end(), local.begin(), local.end());
    out.valid += stats.valid_deliveries();
    out.receptions += stats.receptions();
    out.purged += stats.purged();
    out.lost += stats.lost();
    out.earning += stats.earning();
    out.trunk_forwards += net->trunk_forwards_sent();
    out.trunk_reconnects += net->trunk_reconnects();
  }
  if (want_interested) {
    for (const auto& message : world.messages) {
      for (const std::size_t index : world.fabric->match_all(*message)) {
        const Subscription& sub = world.fabric->subscription(index);
        if (!sub.active_at(message->publish_time())) continue;
        out.interested.insert(pair_key(message->id(), sub.subscriber));
      }
    }
  }
  return out;
}

/// Live deliveries name only interested pairs, each at most once; "" when
/// that holds.
std::string delivery_error(const ClusterRun& run,
                           const std::unordered_set<std::uint64_t>& interested) {
  std::unordered_set<std::uint64_t> seen;
  for (const LiveDelivery& d : run.deliveries) {
    const std::uint64_t key = pair_key(d.message, d.subscriber);
    if (interested.count(key) == 0) {
      return "delivery of message " + std::to_string(d.message) +
             " to uninterested subscriber " + std::to_string(d.subscriber);
    }
    if (!seen.insert(key).second) {
      return "pair delivered twice: message " + std::to_string(d.message) +
             " subscriber " + std::to_string(d.subscriber);
    }
  }
  if (run.valid > run.deliveries.size()) return "valid > deliveries";
  return "";
}

/// encode_frame / FrameAssembler over one ForwardFrame per message.
void measure_wire(const LiveRunConfig& config, Report& report) {
  const LiveWorld world = build_live_world(config);
  std::vector<double> encode_ns;
  std::vector<double> parse_ns;
  double bytes = 0.0;
  bool round_trip = true;
  std::vector<std::uint8_t> buffer;
  FrameAssembler assembler;
  std::uint64_t seq = 0;
  for (const auto& message : world.messages) {
    Frame frame;
    frame.payload = ForwardFrame{
        ++seq,
        world.topology.publisher_edges.at(
            static_cast<std::size_t>(message->publisher())),
        *message};
    buffer.clear();
    const auto t0 = Clock::now();
    encode_frame(frame, buffer);
    const auto t1 = Clock::now();
    assembler.feed(buffer.data(), buffer.size());
    const std::optional<Frame> parsed = assembler.next();
    const auto t2 = Clock::now();
    encode_ns.push_back(static_cast<double>(ns_between(t0, t1)));
    parse_ns.push_back(static_cast<double>(ns_between(t1, t2)));
    bytes += static_cast<double>(buffer.size());
    if (!parsed.has_value() || !(*parsed == frame)) round_trip = false;
  }
  report.check("wire_forward_frames_round_trip", round_trip);
  report.metric("net.encode_ns", median(encode_ns), "ns");
  report.metric("net.parse_ns", median(parse_ns), "ns");
  report.metric("net.bytes_per_forward",
                seq > 0 ? bytes / static_cast<double>(seq) : 0.0, "B");
}

/// run_simulation calls per served world and pass.
constexpr int kSimRepeats = 3;

}  // namespace

void run_live_workload(const Options& options, Report& report, Spans& spans) {
  /// One served world: its simulator reference and interested pairs are
  /// taken on its first pass and checked on every later one.
  struct Served {
    LiveRunConfig config;
    SimResult reference;
    std::unordered_set<std::uint64_t> interested;
    /// Wall time of every run_simulation call on this world.
    std::vector<double> sim_walls;
    bool seen = false;
  };
  std::vector<Served> worlds;
  std::vector<SimConfig> sim_configs;
  for (LiveRunConfig& config : live_cluster_configs(options.seed,
                                                    options.scale)) {
    sim_configs.push_back(config.sim);
    worlds.push_back(Served{std::move(config), {}, {}, {}, false});
  }
  const auto start = Clock::now();
  if (options.trace) {
    // The simulator side of the same worlds, through the layer replay.
    measure_sim_layers(sim_configs, options.seconds * 0.3, report, spans);
  }

  std::vector<ClusterRun> runs;
  std::vector<double> retained;
  std::vector<double> delivered_ms;
  double potential = 0.0;
  double interested_pairs = 0.0;
  bool repeat_ok = true;
  bool interested_ok = true;
  // Whole rounds over every world, so each world weighs the same.
  for (int round = 0;
       round == 0 || ms_between(start, Clock::now()) < options.seconds * 1000.0;
       ++round) {
    for (Served& world : worlds) {
      const int run = static_cast<int>(runs.size());
      ClusterRun cluster =
          run_cluster(world.config, !world.seen, options.trace, spans, run);
      // The simulator side is cheap next to serving the world, so it runs
      // several times per serve for a steadier sim_wall_s.
      SimResult result;
      for (int repeat = 0; repeat < kSimRepeats; ++repeat) {
        const auto t0 = Clock::now();
        SimResult again;
        world.sim_walls.push_back(time_unstolen(
            [&] { again = run_simulation(world.config.sim); }));
        spans.add("run_simulation", t0, Clock::now(), Spans::kNoParent, run);
        if (repeat == 0) {
          result = std::move(again);
        } else if (again.earning != result.earning ||
                   again.valid_deliveries != result.valid_deliveries) {
          repeat_ok = false;
        }
      }
      if (!world.seen) {
        world.seen = true;
        world.reference = result;
        world.interested = std::move(cluster.interested);
        if (world.interested.size() != result.total_interested) {
          interested_ok = false;
        }
      } else if (result.earning != world.reference.earning ||
                 result.valid_deliveries !=
                     world.reference.valid_deliveries ||
                 result.total_interested !=
                     world.reference.total_interested) {
        repeat_ok = false;
      }
      const SimResult& reference = world.reference;

      const std::string error = delivery_error(cluster, world.interested);
      const bool ok = error.empty() &&
                      cluster.published == reference.published &&
                      cluster.earning <= reference.potential_earning;
      report.check("live_run " + std::to_string(run), ok,
                   error.empty() ? "published " +
                                       std::to_string(cluster.published)
                                 : error);
      report.add_pairs(reference.total_interested, ok);
      potential += reference.potential_earning;
      interested_pairs += static_cast<double>(reference.total_interested);
      retained.push_back(cluster.earning / reference.earning);
      const double speedup = world.config.speedup;
      for (const LiveDelivery& d : cluster.deliveries) {
        delivered_ms.push_back(
            d.delay / speedup +
            cluster.lateness_ms[static_cast<std::size_t>(d.message)]);
      }
      // Only summaries are kept across passes, so the benchmark's own
      // memory does not grow with the pass count.
      cluster.deliveries = {};
      if (!options.trace) {
        cluster.lateness_ms = {};
        cluster.publish_us = {};
      }
      runs.push_back(std::move(cluster));
    }
  }
  report.check("simulator_results_repeat_per_seed", repeat_ok);
  report.check("interested_pairs_match_simulator", interested_ok);

  const auto med = [&](auto field) {
    std::vector<double> values;
    for (const ClusterRun& run : runs) values.push_back(field(run));
    return median(values);
  };
  if (options.trace) {
    std::vector<double> publish_us;
    std::vector<double> lateness;
    for (const ClusterRun& run : runs) {
      publish_us.insert(publish_us.end(), run.publish_us.begin(),
                        run.publish_us.end());
      lateness.insert(lateness.end(), run.lateness_ms.begin(),
                      run.lateness_ms.end());
    }
    report.metric("runtime.publish_us_p99", percentile(publish_us, 0.99),
                  "us");
    report.metric("runtime.driver_lag_p50_ms", percentile(lateness, 0.50),
                  "ms");
    report.metric("runtime.driver_lag_p99_ms", percentile(lateness, 0.99),
                  "ms");
    report.metric("runtime.drain_ms",
                  med([](const ClusterRun& r) { return r.drain_ms; }), "ms");
    report.metric("runtime.receptions",
                  med([](const ClusterRun& r) {
                    return static_cast<double>(r.receptions);
                  }),
                  "count");
    report.metric("runtime.purged",
                  med([](const ClusterRun& r) {
                    return static_cast<double>(r.purged);
                  }),
                  "count");
    report.metric("runtime.lost",
                  med([](const ClusterRun& r) {
                    return static_cast<double>(r.lost);
                  }),
                  "count");
    report.metric("runtime.cpu_per_wall", med([](const ClusterRun& r) {
                    return r.drive_cpu_s / r.drive_wall_s;
                  }),
                  "ratio");
    report.metric("net.trunk_forwards",
                  med([](const ClusterRun& r) {
                    return static_cast<double>(r.trunk_forwards);
                  }),
                  "count");
    report.metric("net.trunk_reconnects",
                  med([](const ClusterRun& r) {
                    return static_cast<double>(r.trunk_reconnects);
                  }),
                  "count");
    measure_wire(worlds.front().config, report);
    return;
  }

  double earning = 0.0;
  double valid = 0.0;
  for (const ClusterRun& run : runs) {
    earning += run.earning;
    valid += static_cast<double>(run.valid);
  }
  report.metric("setup_s", med([](const ClusterRun& r) { return r.setup_s; }),
                "s");
  // One run_simulation of every served world: the sum of the worlds'
  // median call times.
  double sim_wall = 0.0;
  for (const Served& world : worlds) sim_wall += median(world.sim_walls);
  report.metric("sim_wall_s", sim_wall, "s");
  report.metric("earning_ratio", earning / potential, "ratio");
  report.metric("delivery_rate", valid / interested_pairs, "ratio");
  report.metric("live_earning_retained", median(retained), "ratio");
  report.metric("deliver_p50_ms", percentile(delivered_ms, 0.50), "ms");
  report.metric("deliver_p99_ms", percentile(delivered_ms, 0.99), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.note("deliver_samples", static_cast<double>(delivered_ms.size()));
  report.note("live_passes", static_cast<double>(runs.size()));
}

}  // namespace ledger
