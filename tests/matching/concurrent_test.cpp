// Concurrency suite (TSan target: the tsan preset runs `ctest -L
// matching`).  Readers race writers through the epoch-published snapshots;
// the invariants checked here are exactly the ones the protocol promises:
// every emitted row was added with a filter that matches the probe, results
// are ascending and duplicate-free, and a quiesced fabric agrees with brute
// force.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "matching/sharded_index.h"
#include "workload/generator.h"

namespace bdps::matching {
namespace {

TEST(MatchFabricConcurrent, ReadersRaceChurnWriter) {
  MatchFabricOptions options;
  options.shards = 4;
  options.rebuild_min = 16;  // Frequent republication under the readers.
  MatchFabric fabric(options);

  ChurnWorkloadConfig config;
  config.seed = 11;
  config.attribute_pool = 10;
  config.threshold_pool = 8;
  ChurnWorkload workload(config);

  // The whole add schedule is fixed up front so readers can validate
  // emitted rows against an immutable filter table.
  constexpr std::size_t kAdds = 1500;
  std::vector<Filter> filters;
  filters.reserve(kAdds);
  for (std::size_t i = 0; i < kAdds; ++i) {
    filters.push_back(workload.next_filter());
  }
  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) probes.push_back(workload.next_message());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng remove_rng(99);
    for (std::size_t i = 0; i < kAdds; ++i) {
      const RowId row = fabric.add(filters[i]);
      ASSERT_EQ(row, i);
      // Tombstone a random earlier row now and then; removed rows may or
      // may not appear in concurrent matches (both linearisations valid),
      // but their filters still matched — the reader invariant holds.
      if (i > 0 && i % 7 == 0) {
        fabric.remove(remove_rng.uniform_index(i));
      }
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      MatchScratch scratch;
      std::size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 50) {
        const Message& m = probes[(iterations + static_cast<std::size_t>(r)) %
                                  probes.size()];
        const auto& got = fabric.match(m, scratch);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
        for (const RowId row : got) {
          ASSERT_LT(row, filters.size());
          ASSERT_TRUE(filters[row].matches(m)) << "row " << row;
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: the fabric must now agree with brute force over the live set.
  std::vector<bool> alive(kAdds, true);
  {
    Rng remove_rng(99);
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (i > 0 && i % 7 == 0) alive[remove_rng.uniform_index(i)] = false;
    }
  }
  MatchScratch scratch;
  for (const Message& m : probes) {
    std::vector<RowId> expect;
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (alive[i] && filters[i].matches(m)) expect.push_back(i);
    }
    ASSERT_EQ(fabric.match(m, scratch), expect);
  }
}

TEST(MatchFabricConcurrent, CompileTierRacesReadersAndChurnWriter) {
  // The compile tier's three publication paths all race here: rebuilds
  // compile hot roots inline, writers drain reader-raised compile_wanted
  // flags, and readers themselves volunteer through try_lock mid-match.
  // hits=1/min_members=1 makes every matched root hot immediately, so
  // program republishes happen constantly under the reader load (the TSan
  // matching preset runs this).
  MatchFabricOptions options;
  options.shards = 2;
  options.rebuild_min = 16;
  options.compile_hot_hits = 1;
  options.compile_min_members = 1;
  MatchFabric fabric(options);

  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;   // Heavy collisions: big covering roots.
  config.threshold_pool = 6;
  ChurnWorkload workload(config);

  constexpr std::size_t kAdds = 1200;
  std::vector<Filter> filters;
  filters.reserve(kAdds);
  for (std::size_t i = 0; i < kAdds; ++i) {
    filters.push_back(workload.next_filter());
  }
  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) probes.push_back(workload.next_message());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng remove_rng(5);
    for (std::size_t i = 0; i < kAdds; ++i) {
      const RowId row = fabric.add(filters[i]);
      ASSERT_EQ(row, i);
      if (i > 0 && i % 5 == 0) {
        fabric.remove(remove_rng.uniform_index(i));
      }
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      MatchScratch scratch;
      std::size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 80) {
        const Message& m = probes[(iterations + static_cast<std::size_t>(r)) %
                                  probes.size()];
        const auto& got = fabric.match(m, scratch);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
        for (const RowId row : got) {
          ASSERT_LT(row, filters.size());
          ASSERT_TRUE(filters[row].matches(m)) << "row " << row;
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: compiled answers equal brute force over the live set, and
  // the tier demonstrably ran.
  std::vector<bool> alive(kAdds, true);
  {
    Rng remove_rng(5);
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (i > 0 && i % 5 == 0) alive[remove_rng.uniform_index(i)] = false;
    }
  }
  MatchScratch scratch;
  for (const Message& m : probes) {
    std::vector<RowId> expect;
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (alive[i] && filters[i].matches(m)) expect.push_back(i);
    }
    ASSERT_EQ(fabric.match(m, scratch), expect);
  }
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_GT(stats.compiles, 0u);
  EXPECT_GT(stats.compiled_roots, 0u);
  EXPECT_GT(stats.vm_member_evals, 0u);
}

TEST(MatchFabricConcurrent, SharedProgramsRaceCompileAndRetireAcrossShards) {
  // Cross-shard program sharing under fire: two signature-identical hot
  // roots live in different hash shards (one pinned in the pre-promotion
  // shard, one fanned out after promote_rows), so their compiles race
  // through the shared program cache — whichever shard compiles first
  // inserts, the rival hits.  Meanwhile the writer's throwaway roots on
  // the same attribute keep that shard rebuilding (rebuild_min=4), so
  // compiled programs retire through the epoch domain and the cache sweep
  // reclaims entries whose last snapshot reference dropped — the
  // compile/retire/sweep interleaving is exactly what TSan watches here.
  MatchFabricOptions options;
  options.shards = 8;
  options.promote_rows = 12;
  options.rebuild_min = 4;  // Constant rebuild/retire churn under readers.
  options.compile_hot_hits = 1;
  options.compile_min_members = 1;
  MatchFabric fabric(options);

  // A root attribute whose hash shard differs from the pinned
  // pre-promotion shard (1), so the two equal groups land apart.
  std::string attr = "R0";
  for (int i = 1; 1 + std::hash<std::string>{}(attr) % 8 == 1; ++i) {
    attr = std::string("R").append(std::to_string(i));
  }

  // The whole add schedule is fixed up front (immutable filter table for
  // the readers).  Rows 0-8: covering group in the pre-promotion shard.
  // Rows 9-11: filler crossing promote_rows.  Rows 12-20: the identical
  // group, fanned to attr's own hash shard.  Rows 21+: writer churn —
  // equal-signature throwaway roots on the same attribute (>= 200 never
  // overlaps the groups) plus sprayed W* attributes.
  std::vector<Filter> filters;
  const auto push_group = [&] {
    Filter root;
    root.where(attr, Op::kLt, Value(100.0));
    filters.push_back(std::move(root));
    for (int k = 1; k <= 8; ++k) {
      Filter member;
      member.where(attr, Op::kLt, Value(static_cast<double>(k)));
      filters.push_back(std::move(member));
    }
  };
  push_group();
  for (int i = 0; i < 3; ++i) {
    Filter f;
    f.where(std::string("F").append(std::to_string(i)), Op::kGe, Value(0.0));
    filters.push_back(std::move(f));
  }
  push_group();
  const std::size_t kFixed = filters.size();
  constexpr std::size_t kAdds = 900;
  for (std::size_t i = 0; i < kAdds; ++i) {
    Filter f;
    if (i % 2 == 0) {
      f.where(attr, Op::kGe, Value(200.0 + static_cast<double>(i % 16)));
    } else {
      f.where(std::string("W").append(std::to_string(i % 7)), Op::kLt,
              Value(static_cast<double>(i % 9)));
    }
    filters.push_back(std::move(f));
  }

  for (std::size_t i = 0; i < kFixed; ++i) {
    ASSERT_EQ(fabric.add(filters[i]), i);
  }

  // Probes heat both group roots (0.5), the writer's >= 200 roots (260 —
  // removes keep killing those, so their retired programs go cache-only
  // and the sweep reclaims them), and the W* spray.
  std::vector<Message> probes;
  probes.emplace_back(0, 0, 0.0, 1.0,
                      std::vector<Attribute>{{attr, Value(0.5)}});
  probes.emplace_back(1, 0, 0.0, 1.0,
                      std::vector<Attribute>{{attr, Value(260.0)}});
  for (int w = 0; w < 7; ++w) {
    probes.emplace_back(2 + w, 0, 0.0, 1.0,
                        std::vector<Attribute>{
                            {std::string("W").append(std::to_string(w)),
                             Value(4.5)},
                            {attr, Value(0.5)}});
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng remove_rng(23);
    for (std::size_t i = 0; i < kAdds; ++i) {
      const RowId row = fabric.add(filters[kFixed + i]);
      ASSERT_EQ(row, kFixed + i);
      // Tombstone only the writer's own earlier rows: the two groups stay
      // alive, so the shared hot roots' member lists never change.
      if (i > 0 && i % 5 == 0) {
        fabric.remove(kFixed + remove_rng.uniform_index(i));
      }
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      MatchScratch scratch;
      std::size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 80) {
        const Message& m = probes[(iterations + static_cast<std::size_t>(r)) %
                                  probes.size()];
        const auto& got = fabric.match(m, scratch);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
        for (const RowId row : got) {
          ASSERT_LT(row, filters.size());
          ASSERT_TRUE(filters[row].matches(m)) << "row " << row;
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: force one more rebuild of the fanned shard (its overlay
  // threshold is core/8, far below this forcer count) so the hot group
  // root deterministically recompiles through the cache — by now both
  // shards compiled, so the fold is a guaranteed cache hit even if the
  // racing volunteer compiles above both missed and dedup'd at insert.
  const std::size_t kForcers = 160;
  for (std::size_t i = 0; i < kForcers; ++i) {
    Filter f;
    f.where(attr, Op::kGe, Value(200.0 + static_cast<double>(i % 16)));
    ASSERT_EQ(fabric.add(f), filters.size());
    filters.push_back(std::move(f));
  }

  // The fabric agrees with brute force over the live set, and the cache
  // demonstrably shared a program across the two shards.
  std::vector<bool> alive(filters.size(), true);
  {
    Rng remove_rng(23);
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (i > 0 && i % 5 == 0) {
        alive[kFixed + remove_rng.uniform_index(i)] = false;
      }
    }
  }
  MatchScratch scratch;
  for (const Message& m : probes) {
    std::vector<RowId> expect;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      if (alive[i] && filters[i].matches(m)) expect.push_back(i);
    }
    ASSERT_EQ(fabric.match(m, scratch), expect);
  }
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_GT(stats.compiles, 0u);
  EXPECT_GE(stats.shared_programs, 1u);
  EXPECT_GT(stats.vm_batch_evals, 0u);
  EXPECT_GE(stats.unique_programs, 1u);
}

TEST(MatchFabricConcurrent, ManyScratchesShareOneDomainSlotPool) {
  MatchFabric fabric;
  for (int i = 0; i < 8; ++i) {
    Filter f;
    f.where("A", Op::kGe, Value(static_cast<double>(i)));
    fabric.add(f);
  }
  const Message m(1, 0, 0.0, 1.0, {{"A", Value(100.0)}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      // Scratches come and go: slots must recycle without double-use.
      for (int i = 0; i < 200; ++i) {
        MatchScratch scratch;
        ASSERT_EQ(fabric.match(m, scratch).size(), 8u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace bdps::matching
