// The seed-semantics golden suite, replayed through the sharded engine.
//
// Every configuration of golden_matrix.h runs through ParallelSimulator at
// P in {1, 2, 4, 7} and must reproduce the exact SimResult bytes pinned in
// goldens.inc — the same bytes the sequential engine produces.  This is the
// engine's core contract: domain decomposition, conservative windows,
// deposit-at-send-start and the barrier merge may change *when* work
// happens, never *what* the run computes.
#include <gtest/gtest.h>

#include "../golden_matrix.h"

namespace bdps {
namespace {

struct Golden {
  const char* name;
  std::size_t published;
  std::size_t receptions;
  std::size_t deliveries;
  std::size_t valid_deliveries;
  std::size_t total_interested;
  double delivery_rate;
  double earning;
  double potential_earning;
  std::size_t purged_expired;
  std::size_t purged_hopeless;
  std::size_t lost_copies;
  std::size_t max_input_queue;
  double mean_valid_delay_ms;
  double end_time;
};

constexpr Golden kGoldens[] = {
#include "../goldens.inc"
};

class ParallelGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelGolden, EveryGoldenCaseIsBitwiseIdentical) {
  const std::size_t shards = GetParam();
  const auto cases = bdps_golden::golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Golden& want = kGoldens[i];
    ASSERT_EQ(cases[i].name, want.name);
    SimConfig config = cases[i].config;
    config.shards = shards;
    const SimResult got = run_simulation(config);
    EXPECT_EQ(got.published, want.published) << want.name;
    EXPECT_EQ(got.receptions, want.receptions) << want.name;
    EXPECT_EQ(got.deliveries, want.deliveries) << want.name;
    EXPECT_EQ(got.valid_deliveries, want.valid_deliveries) << want.name;
    EXPECT_EQ(got.total_interested, want.total_interested) << want.name;
    // Exact double equality on purpose (see seed_semantics_test.cpp): the
    // parallel engine must replay every order-sensitive accumulation in
    // the sequential order, so "close" is a bug.
    EXPECT_EQ(got.delivery_rate, want.delivery_rate) << want.name;
    EXPECT_EQ(got.earning, want.earning) << want.name;
    EXPECT_EQ(got.potential_earning, want.potential_earning) << want.name;
    EXPECT_EQ(got.purged_expired, want.purged_expired) << want.name;
    EXPECT_EQ(got.purged_hopeless, want.purged_hopeless) << want.name;
    EXPECT_EQ(got.lost_copies, want.lost_copies) << want.name;
    EXPECT_EQ(got.max_input_queue, want.max_input_queue) << want.name;
    EXPECT_EQ(got.mean_valid_delay_ms, want.mean_valid_delay_ms) << want.name;
    EXPECT_EQ(got.end_time, want.end_time) << want.name;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ParallelGolden,
                         ::testing::Values(1u, 2u, 4u, 7u),
                         [](const auto& info) {
                           return std::string("P").append(
                               std::to_string(info.param));
                         });

}  // namespace
}  // namespace bdps
