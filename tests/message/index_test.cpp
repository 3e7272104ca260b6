#include "message/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace bdps {
namespace {

Message make_message(std::vector<Attribute> head) {
  return Message(1, 0, 0.0, 50.0, std::move(head));
}

/// match() reports each id once in unspecified order; compare as sets.
std::vector<SubscriptionIndex::EntryId> sorted_match(
    const SubscriptionIndex& index, const Message& m) {
  std::vector<SubscriptionIndex::EntryId> ids = index.match(m);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Brute-force reference: evaluate every registered filter directly.
std::vector<SubscriptionIndex::EntryId> brute_force(
    const std::vector<Filter>& filters, const Message& m) {
  std::vector<SubscriptionIndex::EntryId> out;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    if (filters[i].matches(m)) out.push_back(i);
  }
  return out;
}

TEST(SubscriptionIndex, BasicLessThan) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kLt, Value(5.0));
  index.add(f);
  EXPECT_EQ(index.match(make_message({{"A1", Value(4.0)}})).size(), 1u);
  EXPECT_TRUE(index.match(make_message({{"A1", Value(5.0)}})).empty());
  EXPECT_TRUE(index.match(make_message({{"A1", Value(6.0)}})).empty());
}

TEST(SubscriptionIndex, InclusiveBoundaries) {
  SubscriptionIndex index;
  Filter le;
  le.where("A1", Op::kLe, Value(5.0));
  Filter ge;
  ge.where("A1", Op::kGe, Value(5.0));
  index.add(le);
  index.add(ge);
  const auto at_boundary = index.match(make_message({{"A1", Value(5.0)}}));
  EXPECT_EQ(at_boundary.size(), 2u);  // Both <=5 and >=5 match exactly 5.
}

TEST(SubscriptionIndex, WildcardMatchesEverything) {
  SubscriptionIndex index;
  index.add(Filter{});
  EXPECT_EQ(index.match(make_message({})).size(), 1u);
  EXPECT_EQ(index.match(make_message({{"A9", Value(1.0)}})).size(), 1u);
}

TEST(SubscriptionIndex, StringEquality) {
  SubscriptionIndex index;
  Filter f;
  f.where("sym", Op::kEq, Value("GOOG"));
  index.add(f);
  EXPECT_EQ(index.match(make_message({{"sym", Value("GOOG")}})).size(), 1u);
  EXPECT_TRUE(index.match(make_message({{"sym", Value("MSFT")}})).empty());
  EXPECT_TRUE(index.match(make_message({{"sym", Value(1.0)}})).empty());
}

TEST(SubscriptionIndex, NonIndexableOpsFallBackCorrectly) {
  SubscriptionIndex index;
  Filter ne;
  ne.where("A1", Op::kNe, Value(3.0));
  Filter range;
  range.where("A1", Op::kInRange, Value(2.0), Value(4.0));
  index.add(ne);
  index.add(range);
  const auto at2 = index.match(make_message({{"A1", Value(2.0)}}));
  ASSERT_EQ(at2.size(), 2u);  // ne(3) and in[2,4] both match 2.
  const auto at3 = index.match(make_message({{"A1", Value(3.0)}}));
  ASSERT_EQ(at3.size(), 1u);  // Only the range.
  EXPECT_EQ(at3[0], 1u);
}

TEST(SubscriptionIndex, MixedIndexableAndDirectPredicates) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kLt, Value(5.0)).where("A2", Op::kNe, Value(1.0));
  index.add(f);
  EXPECT_EQ(
      index.match(make_message({{"A1", Value(2.0)}, {"A2", Value(3.0)}}))
          .size(),
      1u);
  EXPECT_TRUE(
      index.match(make_message({{"A1", Value(2.0)}, {"A2", Value(1.0)}}))
          .empty());
  EXPECT_TRUE(
      index.match(make_message({{"A1", Value(7.0)}, {"A2", Value(3.0)}}))
          .empty());
}

TEST(SubscriptionIndex, MatchesEntryEvaluatesOneFilter) {
  SubscriptionIndex index;
  Filter f;
  f.where("A1", Op::kGt, Value(5.0));
  const auto id = index.add(f);
  EXPECT_TRUE(index.matches_entry(id, make_message({{"A1", Value(6.0)}})));
  EXPECT_FALSE(index.matches_entry(id, make_message({{"A1", Value(4.0)}})));
}

TEST(SubscriptionIndex, IncrementalAddsKeepMatching) {
  SubscriptionIndex index;
  std::vector<Filter> filters;
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    Filter f;
    f.where("A1", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    filters.push_back(f);
    index.add(f);
    // After each add the whole index must agree with brute force.
    const Message probe = make_message({{"A1", Value(rng.uniform(0.0, 10.0))}});
    ASSERT_EQ(sorted_match(index, probe), brute_force(filters, probe));
  }
}

/// Index whose matching ids sit on both sides of the 64-bit word boundaries
/// of the emitted bitmap: ids in `hits` alternate between a wildcard, a
/// direct-only filter, two-or-three OR disjuncts that fire together, and a
/// counted range; every other id never matches the probes below.
struct BoundaryIndex {
  SubscriptionIndex index;
  std::vector<std::vector<Filter>> disjuncts;  // Per id, for brute force.
};

BoundaryIndex boundary_index(std::size_t size,
                             const std::vector<std::size_t>& hits) {
  BoundaryIndex built;
  for (std::size_t id = 0; id < size; ++id) {
    std::vector<Filter> filters(1);
    const bool hit = std::find(hits.begin(), hits.end(), id) != hits.end();
    if (!hit) {
      filters[0].where("A1", Op::kGt, Value(100.0));
    } else if (id % 4 == 0) {
      // Wildcard: matches every message.
    } else if (id % 4 == 1) {
      filters[0].where("A1", Op::kNe, Value(-1.0));  // Direct-only.
    } else if (id % 4 == 2) {
      filters[0].where("A1", Op::kLt, Value(10.0));
      filters.emplace_back().where("A2", Op::kGe, Value(0.0));
      filters.emplace_back().where("A1", Op::kNe, Value(-2.0));
    } else {
      filters[0].where("A1", Op::kGe, Value(0.0)).where("A1", Op::kLe,
                                                        Value(60.0));
    }
    const auto got = built.index.add(filters[0]);
    EXPECT_EQ(got, id);
    for (std::size_t d = 1; d < filters.size(); ++d) {
      built.index.add_disjunct(id, filters[d]);
    }
    built.disjuncts.push_back(std::move(filters));
  }
  built.index.finalize();
  return built;
}

std::vector<SubscriptionIndex::EntryId> brute_force(const BoundaryIndex& b,
                                                    const Message& m) {
  std::vector<SubscriptionIndex::EntryId> out;
  for (std::size_t id = 0; id < b.disjuncts.size(); ++id) {
    if (std::any_of(b.disjuncts[id].begin(), b.disjuncts[id].end(),
                    [&](const Filter& f) { return f.matches(m); })) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(SubscriptionIndex, BitmapEmitIsAscendingAcrossWordBoundaries) {
  const std::vector<std::size_t> hits = {0,   1,   2,   3,   62,  63,
                                         64,  65,  66,  67,  126, 127,
                                         128, 129, 130, 190, 191, 192};
  const BoundaryIndex small = boundary_index(66, hits);
  const BoundaryIndex large = boundary_index(193, hits);
  const std::vector<Message> probes = {
      make_message({{"A1", Value(5.0)}, {"A2", Value(1.0)}}),
      make_message({{"A1", Value(50.0)}}),
      make_message({{"A2", Value(-3.0)}}),
      make_message({})};

  // One Scratch serves both indexes in both orders: all of its bits must
  // be clear between calls, whichever index ran last.
  SubscriptionIndex::Scratch scratch;
  std::size_t matched = 0;
  for (const BoundaryIndex* b : {&small, &large, &small, &large, &small}) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const std::vector<SubscriptionIndex::EntryId> got =
          b->index.match(probes[p], scratch);
      EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                     std::greater_equal<>()) == got.end())
          << "not ascending and unique, probe " << p;
      EXPECT_EQ(got, brute_force(*b, probes[p]))
          << b->disjuncts.size() << " ids, probe " << p;
      // The classic overload (internal scratch) agrees.
      EXPECT_EQ(b->index.match(probes[p]), got);
      EXPECT_TRUE(std::all_of(scratch.emitted.begin(), scratch.emitted.end(),
                              [](std::uint64_t w) { return w == 0; }));
      matched += got.size();
    }
  }
  EXPECT_GT(matched, 0u);
  EXPECT_GE(scratch.emitted.size() * 64, large.index.size());
  // The wide probe hits every listed id, straddling each word boundary.
  const std::vector<SubscriptionIndex::EntryId> wide =
      large.index.match(probes[0], scratch);
  EXPECT_EQ(wide, std::vector<SubscriptionIndex::EntryId>(hits.begin(),
                                                          hits.end()));
}

/// Property test: the index is exactly equivalent to brute force on random
/// workloads mixing every operator.
class IndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalence, MatchesBruteForceOnRandomWorkload) {
  Rng rng(GetParam());
  SubscriptionIndex index;
  std::vector<Filter> filters;

  const Op ops[] = {Op::kLt, Op::kLe, Op::kGt, Op::kGe,
                    Op::kEq, Op::kNe, Op::kInRange};
  const char* attrs[] = {"A1", "A2", "A3"};

  for (int i = 0; i < 120; ++i) {
    Filter f;
    const int predicates = 1 + static_cast<int>(rng.uniform_index(3));
    for (int p = 0; p < predicates; ++p) {
      const Op op = ops[rng.uniform_index(7)];
      const char* attr = attrs[rng.uniform_index(3)];
      // Coarse grid so equality predicates actually hit sometimes.
      const double a = std::floor(rng.uniform(0.0, 10.0));
      if (op == Op::kInRange) {
        f.where(attr, op, Value(a), Value(a + 1.0 + rng.uniform_index(3)));
      } else {
        f.where(attr, op, Value(a));
      }
    }
    filters.push_back(f);
    index.add(f);
  }
  // A few wildcards too.
  for (int i = 0; i < 3; ++i) {
    filters.push_back(Filter{});
    index.add(Filter{});
  }

  for (int probe = 0; probe < 300; ++probe) {
    const Message m = make_message(
        {{"A1", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A2", Value(std::floor(rng.uniform(0.0, 10.0)))},
         {"A3", Value(std::floor(rng.uniform(0.0, 10.0)))}});
    ASSERT_EQ(sorted_match(index, m), brute_force(filters, m))
        << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u, 1234u,
                                           0xdeadbeefu));

}  // namespace
}  // namespace bdps
