// Layer replay: re-drives a recorded simulator event stream through the
// layers' public calls and times each call from outside.
//
// A RecordingSink attached to run_simulation keeps the whole stream.  The
// replay then walks it against a freshly built World and its own Brokers:
//
//   * kProcessed  -> RoutingFabric::match_at, the reference
//                    SubscriptionIndex built from the table filters, and
//                    Broker::process; then Broker::take_next on the
//                    sendable slots;
//   * kSendEnd    -> Broker::take_next on the slot whose send ended;
//   * fault batch -> RoutingFabric::apply_link_state (repairable worlds),
//                    applied ahead of every event at or after its instant.
//
// Each pick is compared with the engine's kSendStart for the same link;
// the share that agree is broker.replay_agreement.  On a fault-free run
// without online estimation the replay sees every input the engine saw,
// so every pick agrees.  It cannot see per-link rate re-estimation (which
// changes the believed link parameters picks are scored with) or the
// moment a random link failure kills a link; both lower the agreement.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/config.h"
#include "trace/trace.h"
#include "workloads.h"

namespace ledger {

class RecordingSink final : public bdps::TraceSink {
 public:
  void record(const bdps::TraceEvent& event) override {
    events_.push_back(event);
    const auto kind = static_cast<std::size_t>(event.kind);
    if (counts_.size() <= kind) counts_.resize(kind + 1, 0);
    ++counts_[kind];
  }
  const std::vector<bdps::TraceEvent>& events() const { return events_; }
  std::uint64_t count(bdps::TraceEventKind kind) const {
    const auto index = static_cast<std::size_t>(kind);
    return index < counts_.size() ? counts_[index] : 0;
  }
  std::uint64_t valid_deliveries() const;

 private:
  std::vector<bdps::TraceEvent> events_;
  /// Events per kind, indexed by the enumerator.
  std::vector<std::uint64_t> counts_;
};

/// Per-call layer measurements of one or more replays (summed).
struct ReplayStats {
  std::vector<double> match_ns;
  double match_busy_ms = 0.0;
  double reference_busy_ms = 0.0;
  std::uint64_t match_rows = 0;
  std::uint64_t match_hits = 0;
  std::uint64_t reference_mismatches = 0;

  std::uint64_t process_calls = 0;
  double process_busy_ms = 0.0;
  std::uint64_t take_next_calls = 0;
  double take_next_busy_ms = 0.0;
  std::uint64_t trace_sends = 0;
  std::uint64_t replay_picks = 0;
  std::uint64_t agreed_picks = 0;

  std::uint64_t repair_calls = 0;
  std::uint64_t repair_rows = 0;
  double repair_ms = 0.0;

  /// Queue length right after each enqueue.
  std::vector<double> queue_depths;

  double agreement() const;
};

/// Replays `events` (recorded from run_simulation(config)) against
/// `world`, which must be freshly built from the same config.
void replay(const bdps::SimConfig& config, World& world,
            const std::vector<bdps::TraceEvent>& events, ReplayStats& stats);

}  // namespace ledger
