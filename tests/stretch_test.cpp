#include "reference/stretch.hpp"

#include <gtest/gtest.h>

#include "attacks/pattern_corpus.hpp"
#include "graph/builders.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

TEST(Stretch, ShortestPathOnFailureFreePathIsExactlyOne) {
  const Graph g = make_path(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const StretchStats stats = measure_stretch(g, *pattern, 0, 4, /*num_failures=*/0,
                                             /*trials=*/50, /*seed=*/1);
  EXPECT_EQ(stats.samples, 50);
  EXPECT_EQ(stats.failed_deliveries, 0);
  EXPECT_DOUBLE_EQ(stats.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_hops, 4.0);
}

TEST(Stretch, EveryTrialIsAccountedFor) {
  const Graph g = make_cycle(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const int trials = 200;
  const StretchStats stats =
      measure_stretch(g, *pattern, 0, 3, /*num_failures=*/1, trials, /*seed=*/7);
  // One failed link never disconnects a cycle, so no trial is skipped:
  // every draw either delivers (a sample) or is a failed delivery.
  EXPECT_EQ(stats.samples + stats.failed_deliveries, trials);
  if (stats.samples > 0) {
    EXPECT_GE(stats.mean_stretch, 1.0);
    EXPECT_GE(stats.max_stretch, stats.mean_stretch);
    // Worst detour on C6 between antipodes: walk toward the failure, bounce
    // back, go around — 7 hops for distance 3.
    EXPECT_LE(stats.max_stretch, 7.0 / 3.0 + 1e-9);
  }
}

TEST(Stretch, SweepEngineAgreesWithMeasureStretchOnCleanPath) {
  const Graph g = make_path(5);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);

  std::vector<Scenario> scenarios;
  for (int i = 0; i < 10; ++i) scenarios.push_back(Scenario{g.empty_edge_set(), 0, 4});
  FixedScenarioSource source(std::move(scenarios));
  SweepOptions opts;
  opts.num_threads = 2;
  opts.compute_stretch = true;
  const SweepStats stats = SweepEngine(opts).run(g, *pattern, source);

  EXPECT_EQ(stats.delivered, 10);
  EXPECT_EQ(stats.stretch_samples, 10);
  EXPECT_DOUBLE_EQ(stats.mean_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_hops(), 4.0);
}

TEST(Stretch, SweepEngineStretchBoundsMatchMeasureStretchOnCycle) {
  const Graph g = make_cycle(6);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);

  const StretchStats direct =
      measure_stretch(g, *pattern, 0, 3, /*num_failures=*/1, /*trials=*/300, /*seed=*/11);

  RandomFailureSource source =
      RandomFailureSource::exact_count(g, 1, 300, /*seed=*/11, {{0, 3}});
  SweepOptions opts;
  opts.num_threads = 1;
  opts.compute_stretch = true;
  const SweepStats sweep = SweepEngine(opts).run(g, *pattern, source);

  // Same experiment, same seed and trial count: the two implementations draw
  // identical failure sets (both shuffle the edge list once per trial with
  // the same generator), so the aggregates must line up exactly.
  EXPECT_EQ(sweep.stretch_samples, direct.samples);
  EXPECT_EQ(static_cast<int>(sweep.delivered), direct.samples);
  EXPECT_DOUBLE_EQ(sweep.max_stretch, direct.max_stretch);
  // The engine accumulates stretch in Q32 fixed point (exact, order- and
  // shard-invariant) while measure_stretch keeps a floating sum, so the
  // means agree to the Q32 quantization (2^-32 per sample), not to the ulp.
  EXPECT_NEAR(sweep.mean_stretch(), direct.mean_stretch, 1e-9);
}

}  // namespace
}  // namespace pofl
