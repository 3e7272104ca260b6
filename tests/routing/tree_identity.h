// Bitwise identity of two shortest-path trees, for the tests that pin
// workspace reuse and the fabric's shared-adjacency build to the one-off
// compute_tree_toward(graph, destination).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "routing/spt.h"

namespace bdps_test {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Same destination, next hops and reachability, and PathStats equal bit
/// for bit (not merely ==) at every broker.
inline ::testing::AssertionResult identical_trees(
    const bdps::ShortestPathTree& a, const bdps::ShortestPathTree& b) {
  if (a.destination != b.destination) {
    return ::testing::AssertionFailure()
           << "destination " << a.destination << " vs " << b.destination;
  }
  if (a.next_hop.size() != b.next_hop.size() ||
      a.stats.size() != b.stats.size() ||
      a.reachable.size() != b.reachable.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (std::size_t i = 0; i < a.next_hop.size(); ++i) {
    if (a.next_hop[i] != b.next_hop[i] || a.reachable[i] != b.reachable[i] ||
        a.stats[i].hop_brokers != b.stats[i].hop_brokers ||
        !same_bits(a.stats[i].mean_ms_per_kb, b.stats[i].mean_ms_per_kb) ||
        !same_bits(a.stats[i].variance, b.stats[i].variance)) {
      return ::testing::AssertionFailure() << "broker " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bdps_test
