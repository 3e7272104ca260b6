// Routing fabric: subscription propagation over the overlay.
//
// Builds, for every broker, the §4.2 subscription table.  A subscription
// hosted at edge broker H is installed at every broker on the chosen
// (min-mean-rate, §3.3) path from each publisher edge broker to H; the
// entry's next hop and remaining-path statistics come from the shortest-
// path tree toward H, so they are publisher-independent (see
// routing/spt.h on suffix consistency).  Every subscription at H therefore
// gets the same rows: the fabric derives one install plan per distinct
// home from its tree and copies it per subscription.  Only a repairable
// fabric keeps the trees (it repairs them); a plain one drops each tree
// once its plan is derived.
//
// The fabric also owns one counting index per broker (message/index.h)
// over that broker's enabled table rows, and a global index used by the
// metrics to compute ts_i of eq. (1).  Index ids are not table rows: each
// broker keeps an ascending id -> row map, so an index compacted after
// routing repair still answers in ascending row order.
#pragma once

#include <cstdint>
#include <vector>

#include "message/index.h"
#include "routing/spt.h"
#include "routing/subscription.h"
#include "topology/builders.h"

namespace bdps {

struct FabricOptions {
  /// Single-path routing (§3.3, the paper's choice) when false.  When true,
  /// every non-local table row gains a second entry toward the next-best
  /// neighbour (DCP-style multi-path): the same subscription is served over
  /// two links, and the simulator's duplicate suppression keeps the copies
  /// from multiplying.  Reproduces the traffic-vs-reliability trade-off the
  /// paper cites for preferring single-path.
  bool multipath = false;
  /// Keeps the believed graph, its reverse adjacency, every home's
  /// shortest-path tree and a per-subscription row registry alive so
  /// apply_link_state can repair routing state incrementally as links fail
  /// and recover mid-run (and tree_toward can answer).  Incompatible with
  /// multipath (alternate rows are not repaired).
  bool repairable = false;
};

class RoutingFabric {
 public:
  /// Builds tables for `topology` with the given subscriptions.  The fabric
  /// keeps its own copy of the subscriptions; entry pointers refer into it.
  /// Throws std::invalid_argument, before any tree is built, for more than
  /// 64 publishers, a publisher edge or subscription home outside the
  /// graph, or repairable together with multipath.
  ///
  /// Thread-safety: between apply_link_state calls the fabric is
  /// logically const, but each broker's index sorts lazily and matches
  /// through its own scratch buffer on first use after a change.  So
  /// concurrent match_at calls are safe only for *different* broker ids
  /// (the reactor's and the sharded simulator's layout: every broker is
  /// owned by one worker or lane).
  /// match_all must not race with itself.
  RoutingFabric(const Topology& topology,
                std::vector<Subscription> subscriptions,
                FabricOptions options = {});

  RoutingFabric(const RoutingFabric&) = delete;
  RoutingFabric& operator=(const RoutingFabric&) = delete;

  std::size_t broker_count() const { return tables_.size(); }
  std::size_t subscription_count() const { return subscriptions_.size(); }

  const Subscription& subscription(std::size_t i) const {
    return subscriptions_[i];
  }

  const SubscriptionTable& table(BrokerId broker) const {
    return tables_[broker];
  }

  /// Enabled table rows of `broker` whose filters match `message`, in
  /// ascending row order (the canonical match order).  Rows retired by
  /// apply_link_state are never returned.
  std::vector<const SubscriptionEntry*> match_at(BrokerId broker,
                                                 const Message& message) const;

  /// Allocation-free variant: clears and refills `out` (callers keep a
  /// scratch vector across messages, the broker hot loop's idiom).
  void match_at(BrokerId broker, const Message& message,
                std::vector<const SubscriptionEntry*>& out) const;

  /// Indices (into subscription(i)) of all subscriptions in the system
  /// matching `message`, ascending; defines ts_i in eq. (1) and the
  /// earning ceiling of eq. (2).  Returns a reference into a scratch
  /// buffer reused by the next match_all call — copy to keep (callers on
  /// the hot path iterate in place; see the thread-safety note above).
  const std::vector<std::size_t>& match_all(const Message& message) const;

  /// The shortest-path tree toward a subscriber's home broker (shared by
  /// all subscriptions at that broker), as repaired by apply_link_state;
  /// for tests and diagnostics.  Repairable fabrics only: a plain fabric
  /// keeps no tree and throws std::logic_error.  Throws std::out_of_range
  /// when no subscription is homed at `home`.
  const ShortestPathTree& tree_toward(BrokerId home) const;

  bool repairable() const { return options_.repairable; }

  /// The graph routing was computed over (repairable fabrics only; engines
  /// with a differently-id'd true graph translate edge ids through it).
  const Graph& graph() const { return graph_; }

  /// Incremental routing repair after a batch of link transitions
  /// (repairable fabrics only; ids are edges of graph(), both directions of
  /// an undirected link listed explicitly).  Every affected shortest-path
  /// subtree is recomputed in place (routing/spt.h: repair_tree_toward) and
  /// the subscriptions whose install set, masks or carrying brokers moved
  /// get their table rows rewritten: stale rows are disabled in place —
  /// copies already queued keep pointing at them — and replacements
  /// appended.  At the end of the batch every broker that retired a row has
  /// its matching index rebuilt from its enabled rows in ascending row
  /// order (compaction: retired rows leave the match path), and a broker
  /// that only gained rows indexes just those; each rewritten row is
  /// indexed once.  Single-threaded callers only (the engines invoke it
  /// between events / at window barriers); returns the number of rows
  /// rewritten.
  std::size_t apply_link_state(const std::vector<EdgeId>& edges_down,
                               const std::vector<EdgeId>& edges_up);

 private:
  /// One row of a home's install plan: the table row that every
  /// subscription homed there gets at `broker` (entry.subscription unset).
  struct PlanRow {
    BrokerId broker;
    SubscriptionEntry entry;
  };

  /// derive_plan's broker-indexed scratch; `mask` and `extra` are all zero
  /// between calls.
  struct PlanScratch {
    std::vector<std::uint64_t> mask;
    std::vector<std::uint64_t> extra;
    std::vector<BrokerId> touched;        // Brokers with mask != 0.
    std::vector<BrokerId> extra_touched;  // Brokers with extra != 0.
    std::vector<PlanRow> alternates;      // Multipath rows, ascending.
  };

  /// Appends to `plan` the rows of the subscriptions homed at
  /// tree.destination: the union of the chosen publisher->home paths, each
  /// broker with the mask of publishers routed through it, the home's
  /// local row serving every publisher, and (multipath) the alternate
  /// rows and the brokers on their paths.  Rows ascend by broker; a
  /// broker's alternate row follows its primary one.
  void derive_plan(const Graph& graph, const ShortestPathTree& tree,
                   PlanScratch& scratch, std::vector<PlanRow>& plan) const;

  /// Appends `plan_row` for subscription `sub_index` to its broker's table
  /// (and, repairable, to the subscription's row registry); returns the
  /// table row.  The matching index is the caller's business.
  std::uint32_t append_row(std::size_t sub_index, const PlanRow& plan_row);

  /// One subscription of a repaired home: unless its rows already equal
  /// `plan` on brokers untouched by the repair, disable them (flagging
  /// their brokers in `retired`) and append `plan`'s rows to the tables;
  /// apply_link_state indexes them.  Returns the number of rows appended.
  std::size_t reinstall(std::size_t sub_index,
                        const std::vector<PlanRow>& plan,
                        const std::vector<std::uint8_t>& changed,
                        std::vector<std::uint8_t>& retired);

  /// Registers the filters of table row `row` of `broker` as the next id of
  /// that broker's matching index; rows must be registered in ascending
  /// order, which keeps the id -> row map ascending.
  void install_match_row(BrokerId broker, std::uint32_t row);

  /// Rebuilds `broker`'s matching index and id -> row map from its enabled
  /// rows only.
  void compact_match_rows(BrokerId broker);

  FabricOptions options_;
  std::vector<Subscription> subscriptions_;
  std::vector<SubscriptionTable> tables_;
  std::vector<SubscriptionIndex> broker_indexes_;
  /// Per broker: index id -> table row, ascending.
  std::vector<std::vector<std::uint32_t>> row_of_id_;
  SubscriptionIndex global_index_;
  std::vector<BrokerId> publisher_edges_;

  // ---- Repairable-fabric state (unused unless options_.repairable) ----
  /// Position of one live table row of a subscription: tables_[broker]'s
  /// row index.
  struct RowRef {
    BrokerId broker;
    std::uint32_t row;
  };
  Graph graph_;
  EdgeFlags link_down_;
  /// The reverse adjacency the constructor built the trees from
  /// (routing/spt.h: incoming_edges); every repair reuses it.
  IncomingEdges incoming_;
  /// Per broker: the tree toward it (destination kNoBroker unless some
  /// subscription is homed there) and the subscriptions homed there,
  /// ascending.
  std::vector<ShortestPathTree> trees_;
  std::vector<std::vector<std::size_t>> subs_by_home_;
  /// Per subscription: its live rows, ascending by broker.
  std::vector<std::vector<RowRef>> rows_by_sub_;
};

}  // namespace bdps
