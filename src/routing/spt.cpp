#include "routing/spt.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bdps {

std::vector<BrokerId> ShortestPathTree::path_from(BrokerId from) const {
  std::vector<BrokerId> path;
  if (from < 0 || static_cast<std::size_t>(from) >= reachable.size() ||
      !reachable[from]) {
    return path;
  }
  BrokerId current = from;
  path.push_back(current);
  while (current != destination) {
    current = next_hop[current];
    path.push_back(current);
  }
  return path;
}

IncomingEdges incoming_edges(const Graph& graph) {
  const std::size_t n = graph.broker_count();
  IncomingEdges incoming(n);
  for (std::size_t b = 0; b < n; ++b) {
    for (const EdgeId e : graph.out_edges(static_cast<BrokerId>(b))) {
      incoming[graph.edge(e).to].push_back(e);
    }
  }
  return incoming;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Min-heap on (label, broker id) over the workspace's vector, with exactly
// std::priority_queue's push/pop operations: the id component makes the
// pop order — and therefore tie resolution — deterministic.
using HeapItem = std::pair<double, BrokerId>;

void heap_push(std::vector<HeapItem>& heap, double label, BrokerId id) {
  heap.emplace_back(label, id);
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

HeapItem heap_pop(std::vector<HeapItem>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>());
  const HeapItem top = heap.back();
  heap.pop_back();
  return top;
}

}  // namespace

ShortestPathTree compute_tree_toward(const Graph& graph,
                                     const IncomingEdges& incoming,
                                     BrokerId destination,
                                     SptWorkspace& workspace) {
  const std::size_t n = graph.broker_count();
  if (destination < 0 || static_cast<std::size_t>(destination) >= n) {
    throw std::invalid_argument("tree destination outside the graph");
  }
  if (incoming.size() != n) {
    throw std::invalid_argument(
        "reverse adjacency does not match the graph's broker count");
  }
  ShortestPathTree tree;
  tree.destination = destination;
  tree.next_hop.assign(n, kNoBroker);
  tree.stats.assign(n, PathStats{});
  tree.reachable.assign(n, false);

  std::vector<double>& dist = workspace.dist;
  std::vector<std::uint8_t>& done = workspace.done;
  std::vector<HeapItem>& heap = workspace.heap;
  dist.assign(n, kInf);
  done.assign(n, 0);
  heap.clear();

  dist[destination] = 0.0;
  tree.reachable[destination] = true;
  heap_push(heap, 0.0, destination);

  while (!heap.empty()) {
    const auto [d, u] = heap_pop(heap);
    if (done[u]) continue;
    done[u] = 1;

    for (const EdgeId eid : incoming[u]) {
      const Edge& e = graph.edge(eid);  // e.from -> u
      const BrokerId v = e.from;
      const double candidate = d + e.link.params().mean_ms_per_kb;
      // Strictly-better relaxation only: a finished vertex can never be
      // re-parented, so every suffix of a chosen path stays a chosen path.
      // Ties resolve deterministically through the heap's id ordering.
      if (done[v] || candidate >= dist[v]) continue;
      dist[v] = candidate;
      tree.next_hop[v] = u;
      tree.stats[v] = tree.stats[u].then_link(e.link.params());
      tree.reachable[v] = true;
      heap_push(heap, candidate, v);
    }
  }
  return tree;
}

ShortestPathTree compute_tree_toward(const Graph& graph,
                                     BrokerId destination) {
  SptWorkspace workspace;
  return compute_tree_toward(graph, incoming_edges(graph), destination,
                             workspace);
}

std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const IncomingEdges& incoming, const EdgeFlags& down,
    const std::vector<EdgeId>& newly_down, const std::vector<EdgeId>& newly_up,
    ShortestPathTree& tree) {
  SptWorkspace workspace;
  return repair_tree_toward(graph, incoming, down, newly_down, newly_up, tree,
                            workspace);
}

std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const IncomingEdges& incoming, const EdgeFlags& down,
    const std::vector<EdgeId>& newly_down, const std::vector<EdgeId>& newly_up,
    ShortestPathTree& tree, SptWorkspace& workspace) {
  // A tree edge is one its tail forwards over.  The label of a reachable
  // broker is its remaining-path mean: stats are accumulated by the exact
  // additions compute_tree_toward used for dist, so no separate distance
  // array needs to be stored in the tree.
  const auto on_tree = [&](const Edge& edge) {
    return tree.reachable[edge.from] && tree.next_hop[edge.from] == edge.to;
  };
  const auto improves = [&](const Edge& edge) {  // The test `relax` makes.
    if (!tree.reachable[edge.to]) return false;
    const double tail = tree.reachable[edge.from]
                            ? tree.stats[edge.from].mean_ms_per_kb
                            : kInf;
    return !(tree.stats[edge.to].mean_ms_per_kb +
                 edge.link.params().mean_ms_per_kb >=
             tail);
  };

  // Exact early exit: with no tree edge cut the region below is empty, and
  // a restored edge seeds the cascade only if it strictly improves its
  // tail, so neither loop below would change anything.
  const bool severs = std::any_of(
      newly_down.begin(), newly_down.end(),
      [&](EdgeId e) { return on_tree(graph.edge(e)); });
  const bool restores = std::any_of(
      newly_up.begin(), newly_up.end(), [&](EdgeId e) {
        return !down.test(e) && improves(graph.edge(e));
      });
  if (!severs && !restores) return {};

  const std::size_t n = graph.broker_count();
  std::vector<double>& dist = workspace.dist;
  dist.assign(n, kInf);
  for (std::size_t b = 0; b < n; ++b) {
    if (tree.reachable[b]) dist[b] = tree.stats[b].mean_ms_per_kb;
  }

  // ---- Severed region: brokers whose next-hop chain crossed a cut edge,
  // closed over tree children (every descendant routes through its parent).
  // Brokers outside the region keep intact — and still optimal — paths:
  // removals only delete paths, so an untouched label cannot be beaten
  // except through a newly-up edge, which the cascade below handles.
  std::vector<std::uint8_t>& affected = workspace.affected;
  std::vector<BrokerId>& stack = workspace.stack;
  std::vector<BrokerId>& region = workspace.region;
  affected.assign(n, 0);
  stack.clear();
  region.clear();
  for (const EdgeId e : newly_down) {
    const Edge& edge = graph.edge(e);
    if (on_tree(edge) && !affected[edge.from]) {
      affected[edge.from] = 1;
      stack.push_back(edge.from);
    }
  }
  if (!stack.empty()) {
    // Tree children as flat lists, each in ascending id order.
    std::vector<std::uint32_t>& count = workspace.child_count;
    std::vector<std::uint32_t>& offset = workspace.child_offset;
    std::vector<BrokerId>& ids = workspace.child_ids;
    count.assign(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
      if (tree.reachable[b] && static_cast<BrokerId>(b) != tree.destination) {
        ++count[tree.next_hop[b]];
      }
    }
    offset.resize(n + 1);
    offset[0] = 0;
    for (std::size_t u = 0; u < n; ++u) offset[u + 1] = offset[u] + count[u];
    ids.resize(offset[n]);
    std::copy(offset.begin(), offset.end() - 1, count.begin());  // Cursors.
    for (std::size_t b = 0; b < n; ++b) {
      const auto id = static_cast<BrokerId>(b);
      if (tree.reachable[b] && id != tree.destination) {
        ids[count[tree.next_hop[b]]++] = id;
      }
    }
    while (!stack.empty()) {
      const BrokerId u = stack.back();
      stack.pop_back();
      region.push_back(u);
      for (std::uint32_t i = offset[u]; i < offset[u + 1]; ++i) {
        const BrokerId w = ids[i];
        if (!affected[w]) {
          affected[w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  std::sort(region.begin(), region.end());

  std::vector<SptWorkspace::Saved>& saved = workspace.saved;
  saved.clear();
  for (const BrokerId a : region) {
    saved.push_back(SptWorkspace::Saved{tree.next_hop[a], tree.stats[a],
                                        tree.reachable[a] != 0});
    dist[a] = kInf;
    tree.next_hop[a] = kNoBroker;
    tree.stats[a] = PathStats{};
    tree.reachable[a] = false;
  }

  std::vector<HeapItem>& heap = workspace.heap;
  std::vector<std::uint8_t>& touched = workspace.touched;
  std::vector<BrokerId>& improved = workspace.improved;  // Moved, outside.
  heap.clear();
  touched.assign(n, 0);
  improved.clear();

  // Label-correcting relaxation (labels can still improve after a push, so
  // pops carry a staleness check instead of a done set).
  const auto relax = [&](const Edge& edge) {  // edge.from relaxed via edge.to
    const BrokerId v = edge.from;
    const BrokerId parent = edge.to;
    const double candidate =
        dist[parent] + edge.link.params().mean_ms_per_kb;
    if (candidate >= dist[v]) return;
    dist[v] = candidate;
    tree.next_hop[v] = parent;
    tree.stats[v] = tree.stats[parent].then_link(edge.link.params());
    tree.reachable[v] = true;
    if (!affected[v] && !touched[v]) {
      touched[v] = 1;
      improved.push_back(v);
    }
    heap_push(heap, candidate, v);
  };

  // Seeds: each severed broker's usable edges into the intact region, plus
  // every restored edge as a potential improvement for its tail.
  for (const BrokerId a : region) {
    for (const EdgeId e : graph.out_edges(a)) {
      if (down.test(e)) continue;
      const Edge& edge = graph.edge(e);
      if (!tree.reachable[edge.to]) continue;
      relax(edge);
    }
  }
  for (const EdgeId e : newly_up) {
    if (down.test(e)) continue;  // Tolerate a same-batch down+up no-op.
    const Edge& edge = graph.edge(e);
    if (!tree.reachable[edge.to]) continue;
    relax(edge);
  }

  while (!heap.empty()) {
    const auto [d, u] = heap_pop(heap);
    if (d > dist[u]) continue;  // Stale label.
    for (const EdgeId e : incoming[u]) {
      if (down.test(e)) continue;
      relax(graph.edge(e));
    }
  }

  std::vector<BrokerId> changed;
  for (std::size_t i = 0; i < region.size(); ++i) {
    const BrokerId a = region[i];
    const SptWorkspace::Saved& s = saved[i];
    if (s.next_hop != tree.next_hop[a] ||
        s.reachable != (tree.reachable[a] != 0) ||
        !(s.stats == tree.stats[a])) {
      changed.push_back(a);
    }
  }
  changed.insert(changed.end(), improved.begin(), improved.end());
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

}  // namespace bdps
