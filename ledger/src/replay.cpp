#include "replay.h"

#include <algorithm>
#include <span>

#include "broker/broker.h"
#include "message/index.h"
#include "scheduling/scheduler.h"

namespace ledger {

using namespace bdps;

std::uint64_t RecordingSink::valid_deliveries() const {
  std::uint64_t valid = 0;
  for (const TraceEvent& event : events_) {
    if (event.kind == TraceEventKind::kDeliver && event.valid) ++valid;
  }
  return valid;
}

double ReplayStats::agreement() const {
  const std::uint64_t total = std::max(trace_sends, replay_picks);
  return total == 0 ? 1.0
                    : static_cast<double>(agreed_picks) /
                          static_cast<double>(total);
}

namespace {

/// Reference matcher: one finalize-once counting index per broker, fed the
/// broker's table filters in row order (row id == index id).
class ReferenceIndexes {
 public:
  explicit ReferenceIndexes(const RoutingFabric& fabric)
      : fabric_(fabric), indexes_(fabric.broker_count()) {}

  /// Rows appended by routing repair are registered on first use.
  SubscriptionIndex& at(BrokerId broker) {
    SubscriptionIndex& index = indexes_[static_cast<std::size_t>(broker)];
    const auto& entries = fabric_.table(broker).entries();
    while (index.size() < entries.size()) {
      const Subscription& sub = *entries[index.size()].subscription;
      const SubscriptionIndex::EntryId id = index.add(sub.filter);
      for (const Filter& disjunct : sub.or_filters) {
        index.add_disjunct(id, disjunct);
      }
    }
    return index;
  }

 private:
  const RoutingFabric& fabric_;
  std::vector<SubscriptionIndex> indexes_;
};

class Replayer {
 public:
  Replayer(const SimConfig& config, World& world, ReplayStats& stats)
      : config_(config),
        world_(world),
        stats_(stats),
        strategy_(make_strategy(config.strategy, config.ebpc_weight)),
        reference_(*world.fabric) {
    const Graph& graph = world_.topology.graph;
    const std::size_t broker_count = graph.broker_count();
    const bool repairable = config.repair_routing && world.faults != nullptr;
    brokers_.reserve(broker_count);
    for (std::size_t b = 0; b < broker_count; ++b) {
      brokers_.emplace_back(static_cast<BrokerId>(b), world_.fabric.get(),
                            &graph, strategy_.get(), config.processing_delay,
                            repairable);
    }
    edge_of_slot_.resize(broker_count);
    inflight_.resize(broker_count);
    for (std::size_t b = 0; b < broker_count; ++b) {
      for (const OutputQueue& queue : brokers_[b].queues()) {
        edge_of_slot_[b].push_back(
            graph.edge_id(static_cast<BrokerId>(b), queue.neighbor()));
      }
      inflight_[b].assign(brokers_[b].queue_count(), -1);
    }
    edge_down_.assign(graph.edge_count(), 0);
  }

  void run(const std::vector<TraceEvent>& events) {
    for (const TraceEvent& event : events) {
      apply_faults_until(event.time);
      switch (event.kind) {
        case TraceEventKind::kProcessed:
          on_processed(event);
          break;
        case TraceEventKind::kSendStart:
          on_send_start(event);
          break;
        case TraceEventKind::kSendEnd:
          free_link(event.broker, event.neighbor, event.time, true);
          break;
        case TraceEventKind::kLoss:
          on_loss(event);
          break;
        default:
          break;
      }
    }
  }

 private:
  void on_processed(const TraceEvent& event) {
    const BrokerId b = event.broker;
    const auto& message =
        world_.messages.at(static_cast<std::size_t>(event.message));

    auto t0 = Clock::now();
    world_.fabric->match_at(b, *message, matched_);
    auto t1 = Clock::now();
    SubscriptionIndex& index = reference_.at(b);
    auto t2 = Clock::now();
    const std::vector<SubscriptionIndex::EntryId>& reference =
        index.match(*message);
    auto t3 = Clock::now();
    stats_.match_ns.push_back(static_cast<double>(ns_between(t0, t1)));
    stats_.match_busy_ms += ms_between(t0, t1);
    stats_.reference_busy_ms += ms_between(t2, t3);
    stats_.match_rows += matched_.size();
    if (!matched_.empty()) ++stats_.match_hits;
    if (!same_rows(b, reference)) ++stats_.reference_mismatches;

    Broker& broker = brokers_[static_cast<std::size_t>(b)];
    auto t4 = Clock::now();
    const Broker::FanOut fanout = broker.process(message, event.time);
    auto t5 = Clock::now();
    ++stats_.process_calls;
    stats_.process_busy_ms += ms_between(t4, t5);
    for (const Broker::QueueSlot slot : fanout.enqueued) {
      stats_.queue_depths.push_back(
          static_cast<double>(broker.queue_at(slot).size()));
    }
    start_sends(b, fanout.sendable, event.time);
  }

  /// Compares the enabled rows of both matchers (routing repair disables
  /// rows in place; the engines agree on live rows only).
  bool same_rows(BrokerId b,
                 const std::vector<SubscriptionIndex::EntryId>& reference) {
    const auto& entries = world_.fabric->table(b).entries();
    std::size_t i = 0;
    for (const SubscriptionIndex::EntryId id : reference) {
      const SubscriptionEntry* row = &entries[id];
      if (row->disabled) continue;
      while (i < matched_.size() && matched_[i]->disabled) ++i;
      if (i == matched_.size() || matched_[i] != row) return false;
      ++i;
    }
    while (i < matched_.size() && matched_[i]->disabled) ++i;
    return i == matched_.size();
  }

  void on_send_start(const TraceEvent& event) {
    ++stats_.trace_sends;
    const Broker& broker = brokers_[static_cast<std::size_t>(event.broker)];
    const Broker::QueueSlot slot = broker.slot_of(event.neighbor);
    if (slot == Broker::kNoSlot) return;
    if (inflight_[static_cast<std::size_t>(event.broker)]
                 [static_cast<std::size_t>(slot)] == event.message) {
      ++stats_.agreed_picks;
    }
  }

  void on_loss(const TraceEvent& event) {
    if (event.neighbor == kNoBroker) return;  // Lost at a crashed broker.
    const std::size_t b = static_cast<std::size_t>(event.broker);
    Broker& broker = brokers_[b];
    const Broker::QueueSlot slot = broker.slot_of(event.neighbor);
    if (slot == Broker::kNoSlot) return;
    OutputQueue& queue = broker.queue_at(slot);
    if (queue.link_busy() &&
        inflight_[b][static_cast<std::size_t>(slot)] == event.message) {
      // The copy in flight was cut: the link is free again.
      free_link(event.broker, event.neighbor, event.time, false);
    } else {
      // Queued copies are dropped all at once (dead link or crash wipe).
      queue.clear();
    }
  }

  void free_link(BrokerId b, BrokerId neighbor, TimeMs now, bool completed) {
    Broker& broker = brokers_[static_cast<std::size_t>(b)];
    const Broker::QueueSlot slot = broker.slot_of(neighbor);
    if (slot == Broker::kNoSlot) return;
    OutputQueue& queue = broker.queue_at(slot);
    queue.set_link_busy(false);
    inflight_[static_cast<std::size_t>(b)][static_cast<std::size_t>(slot)] =
        -1;
    const EdgeId edge =
        edge_of_slot_[static_cast<std::size_t>(b)][static_cast<std::size_t>(slot)];
    if (!completed && edge_down_[static_cast<std::size_t>(edge)] != 0) return;
    if (queue.empty()) return;
    const Broker::QueueSlot resend[1] = {slot};
    start_sends(b, resend, now);
  }

  void start_sends(BrokerId b, std::span<const Broker::QueueSlot> slots,
                   TimeMs now) {
    const std::size_t bi = static_cast<std::size_t>(b);
    live_slots_.clear();
    for (const Broker::QueueSlot slot : slots) {
      const EdgeId edge = edge_of_slot_[bi][static_cast<std::size_t>(slot)];
      if (edge_down_[static_cast<std::size_t>(edge)] != 0) continue;  // Held.
      live_slots_.push_back(slot);
    }
    if (live_slots_.empty()) return;
    Broker& broker = brokers_[bi];
    auto t0 = Clock::now();
    broker.take_next(live_slots_, now, config_.purge, dispatch_);
    auto t1 = Clock::now();
    ++stats_.take_next_calls;
    stats_.take_next_busy_ms += ms_between(t0, t1);
    for (const Broker::Dispatch& dispatch : dispatch_) {
      if (!dispatch.chosen.has_value()) continue;
      broker.queue_at(dispatch.slot).set_link_busy(true);
      inflight_[bi][static_cast<std::size_t>(dispatch.slot)] =
          dispatch.chosen->message->id();
      ++stats_.replay_picks;
    }
  }

  /// The engine applies a batch ahead of every event at its instant.
  void apply_faults_until(TimeMs now) {
    if (world_.faults == nullptr) return;
    const auto& batches = world_.faults->batches();
    while (next_batch_ < batches.size() && batches[next_batch_].at <= now) {
      apply_batch(batches[next_batch_++]);
    }
  }

  void apply_batch(const FaultBatch& batch) {
    const Graph& graph = world_.topology.graph;
    for (const BrokerId b : batch.brokers_down) {
      Broker& broker = brokers_[static_cast<std::size_t>(b)];
      for (std::size_t slot = 0; slot < broker.queue_count(); ++slot) {
        broker.queue_at(static_cast<Broker::QueueSlot>(slot)).clear();
      }
    }
    for (const EdgeId e : batch.edges_down) {
      edge_down_[static_cast<std::size_t>(e)] = 1;
    }
    for (const EdgeId e : batch.edges_up) {
      edge_down_[static_cast<std::size_t>(e)] = 0;
    }
    if (world_.fabric->repairable() &&
        (!batch.edges_down.empty() || !batch.edges_up.empty())) {
      const Graph& believed = world_.fabric->graph();
      const auto translate = [&](const std::vector<EdgeId>& in) {
        std::vector<EdgeId> out;
        for (const EdgeId e : in) {
          const Edge& edge = graph.edge(e);
          const EdgeId fe = believed.edge_id(edge.from, edge.to);
          if (fe != kNoEdge) out.push_back(fe);
        }
        return out;
      };
      const std::vector<EdgeId> down = translate(batch.edges_down);
      const std::vector<EdgeId> up = translate(batch.edges_up);
      auto t0 = Clock::now();
      stats_.repair_rows += world_.fabric->apply_link_state(down, up);
      auto t1 = Clock::now();
      ++stats_.repair_calls;
      stats_.repair_ms += ms_between(t0, t1);
    }
    for (const EdgeId e : batch.edges_up) {
      const Edge& edge = graph.edge(e);
      Broker& broker = brokers_[static_cast<std::size_t>(edge.from)];
      const Broker::QueueSlot slot = broker.slot_of(edge.to);
      if (slot == Broker::kNoSlot) continue;
      const OutputQueue& queue = broker.queue_at(slot);
      if (queue.empty() || queue.link_busy()) continue;
      const Broker::QueueSlot kick[1] = {slot};
      start_sends(edge.from, kick, batch.at);
    }
  }

  const SimConfig& config_;
  World& world_;
  ReplayStats& stats_;
  std::unique_ptr<const Strategy> strategy_;
  ReferenceIndexes reference_;
  std::vector<Broker> brokers_;
  std::vector<std::vector<EdgeId>> edge_of_slot_;
  /// Message id the replay put on each link (-1 when idle).
  std::vector<std::vector<MessageId>> inflight_;
  std::vector<std::uint8_t> edge_down_;
  std::size_t next_batch_ = 0;
  std::vector<const SubscriptionEntry*> matched_;
  std::vector<Broker::QueueSlot> live_slots_;
  std::vector<Broker::Dispatch> dispatch_;
};

}  // namespace

void replay(const SimConfig& config, World& world,
            const std::vector<TraceEvent>& events, ReplayStats& stats) {
  Replayer replayer(config, world, stats);
  replayer.run(events);
}

}  // namespace ledger
