// Shortest-path trees over the overlay.
//
// §3.3: single-path routing minimising the mean transmission rate of the
// path.  We run Dijkstra *toward* each destination over reversed edges; the
// resulting in-tree gives every broker its next hop and the remaining-path
// statistics (NN_p, mu_p, sigma_p^2) in one pass, and guarantees suffix
// consistency: the remaining path of a message is independent of which
// publisher it came from, so one subscription-table entry per subscriber
// suffices (§4.2).  Ties break on broker id for determinism.
//
// A caller that builds many trees over one graph (RoutingFabric: one per
// subscriber home) builds the reverse adjacency once (incoming_edges) and
// passes it, with one SptWorkspace, to every tree and every repair; the
// 2-argument compute_tree_toward builds both per call and is the same code.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/path_stats.h"
#include "topology/edge_map.h"
#include "topology/graph.h"

namespace bdps {

/// Routing information toward one destination broker.
struct ShortestPathTree {
  BrokerId destination = kNoBroker;
  /// next_hop[b]: neighbour to forward to from broker b (kNoBroker when b
  /// is the destination or unreachable).
  std::vector<BrokerId> next_hop;
  /// stats[b]: PathStats of the chosen path b -> destination.
  std::vector<PathStats> stats;
  /// reachable[b]: whether a path exists.
  std::vector<bool> reachable;

  /// Materialises the broker sequence from `from` to the destination
  /// (inclusive of both); empty when unreachable.
  std::vector<BrokerId> path_from(BrokerId from) const;
};

/// Reverse adjacency of a graph: incoming[b] lists the ids of the edges
/// into broker b.
using IncomingEdges = std::vector<std::vector<EdgeId>>;

/// The reverse adjacency every tree of `graph` is built from: per broker,
/// edges by source broker ascending, then in that source's out-edge
/// insertion order.  Dijkstra relaxes a popped broker's incoming edges in
/// list order, so the order decides equal-cost ties; a caller-built
/// adjacency passed to compute_tree_toward must use this order to give the
/// trees the 2-argument overload gives.
IncomingEdges incoming_edges(const Graph& graph);

/// Reusable scratch storage for compute_tree_toward / repair_tree_toward.
/// It carries no state from one call to the next: every call sizes and
/// resets whatever it reads, so one workspace may serve any sequence of
/// destinations, trees and graphs, and each result equals, bitwise, the
/// result with a fresh workspace.  Reuse saves only the allocations.  One
/// workspace per thread; the members are the functions' own business.
struct SptWorkspace {
  std::vector<double> dist;
  std::vector<std::uint8_t> done;      // Build: finished brokers.
  std::vector<std::uint8_t> affected;  // Repair: severed region members.
  std::vector<std::uint8_t> touched;   // Repair: improved non-region brokers.
  std::vector<std::pair<double, BrokerId>> heap;  // (label, id) min-heap.
  std::vector<BrokerId> stack;
  std::vector<BrokerId> region;
  std::vector<BrokerId> improved;
  /// Repair: tree children of broker u are
  /// child_ids[child_offset[u] .. child_offset[u + 1]), ascending;
  /// child_count is the fill cursor while they are laid out.
  std::vector<std::uint32_t> child_count;
  std::vector<std::uint32_t> child_offset;
  std::vector<BrokerId> child_ids;
  struct Saved {
    BrokerId next_hop;
    PathStats stats;
    bool reachable;
  };
  std::vector<Saved> saved;  // Repair: pre-repair state of the region.
};

/// Dijkstra on mean path rate toward `destination` over the reverse
/// adjacency `incoming` of `graph` (see incoming_edges for the order it
/// must have), using `workspace` for its scratch.  Throws
/// std::invalid_argument when `destination` is not a broker of `graph` or
/// `incoming` does not have one list per broker.
ShortestPathTree compute_tree_toward(const Graph& graph,
                                     const IncomingEdges& incoming,
                                     BrokerId destination,
                                     SptWorkspace& workspace);

/// The same tree with a fresh incoming_edges(graph) and workspace; for
/// one-off trees, tests and benches.
ShortestPathTree compute_tree_toward(const Graph& graph,
                                     BrokerId destination);

/// Incremental repair of `tree` after a batch of link state changes
/// (dynamic SPT, Ramalingam–Reps style).  `down` is the complete current
/// down-set over `graph`'s edges (already including this batch);
/// `newly_down` / `newly_up` are the edges that changed in this batch.
/// `incoming` is the reverse adjacency of `graph` (incoming edge ids per
/// broker), precomputed by the caller since every tree shares it.
///
/// When no edge of `newly_down` lies on the tree and no edge of `newly_up`
/// strictly improves its tail's label, nothing can change: the call
/// returns an empty list before any O(n) work.  Otherwise severed subtrees
/// (brokers whose next-hop chain crossed a newly-down edge, by child
/// closure) are invalidated and re-attached through a Dijkstra seeded at
/// their boundary; newly-up edges seed a strictly-improving relaxation
/// cascade.  Only the affected region is touched — unaffected brokers keep
/// their exact next hop and PathStats, so a repair after a localised
/// outage costs far less than a full recompute.  Equal-cost ties may
/// resolve differently from a fresh compute_tree_toward (path *costs*
/// always agree; suffix consistency is preserved either way).
///
/// Returns the brokers whose routing state (next hop, reachability or
/// remaining-path stats) actually changed, ascending and deduplicated.
/// `workspace` holds the scratch (see SptWorkspace: nothing carries over).
std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const IncomingEdges& incoming, const EdgeFlags& down,
    const std::vector<EdgeId>& newly_down, const std::vector<EdgeId>& newly_up,
    ShortestPathTree& tree, SptWorkspace& workspace);

/// The same repair with a fresh workspace.
std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const IncomingEdges& incoming, const EdgeFlags& down,
    const std::vector<EdgeId>& newly_down, const std::vector<EdgeId>& newly_up,
    ShortestPathTree& tree);

}  // namespace bdps
