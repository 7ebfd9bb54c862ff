#include "reference/random_failures.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "graph/builders.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "resilience/outerplanar_touring.hpp"
#include "attacks/pattern_corpus.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace pofl {
namespace {

TEST(RandomFailures, PerfectlyResilientPatternDeliversAlways) {
  // Algorithm 1 on K5 is perfectly resilient: conditioned on connectivity,
  // the delivery rate must be exactly 1 at any failure probability.
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  for (double p : {0.1, 0.3, 0.6}) {
    const auto stats = estimate_delivery_rate(k5, *pattern, 0, 4, p, 3000, 7);
    EXPECT_GT(stats.trials_with_promise, 100);
    EXPECT_DOUBLE_EQ(stats.delivery_rate, 1.0) << "p=" << p;
  }
}

TEST(RandomFailures, ImperfectPatternDegradesWithP) {
  // On K7 no pattern is perfect; the id-cyclic pattern's conditional
  // delivery rate must visibly drop as p grows.
  const Graph k7 = make_complete(7);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto low = estimate_delivery_rate(k7, *pattern, 0, 6, 0.05, 4000, 11);
  const auto high = estimate_delivery_rate(k7, *pattern, 0, 6, 0.55, 4000, 11);
  EXPECT_GT(low.delivery_rate, 0.99);   // few failures: nearly always fine
  EXPECT_LT(high.delivery_rate, 1.0);   // heavy failures: some loops
  EXPECT_GE(low.delivery_rate, high.delivery_rate);
}

TEST(RandomFailures, SweepEngineReproducesEstimatorExactly) {
  // RandomFailureSource::iid draws failure sets with the same generator
  // discipline as estimate_delivery_rate (fresh Bernoulli coin per trial over
  // edge ids), so with equal seed and trial count the sweep engine must
  // reproduce the legacy estimator's aggregates bit for bit.
  const Graph k7 = make_complete(7);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const double p = 0.35;
  const int trials = 2000;
  const uint64_t seed = 13;

  const RandomFailureStats legacy = estimate_delivery_rate(k7, *pattern, 0, 6, p, trials, seed);

  auto source = RandomFailureSource::iid(k7, p, trials, seed, {{0, 6}});
  SweepOptions opts;
  opts.num_threads = 3;
  const SweepStats sweep = SweepEngine(opts).run(k7, *pattern, source);

  EXPECT_EQ(sweep.total, trials);
  EXPECT_EQ(sweep.promise_held(), legacy.trials_with_promise);
  EXPECT_EQ(sweep.delivered, legacy.delivered);
  EXPECT_DOUBLE_EQ(sweep.delivery_rate(), legacy.delivery_rate);
  EXPECT_DOUBLE_EQ(sweep.mean_failures(), legacy.mean_failures);
  EXPECT_DOUBLE_EQ(sweep.mean_hops(), legacy.mean_hops);
}

TEST(RandomFailures, MeanFailuresTracksP) {
  const Graph g = make_complete(6);
  const auto pattern = make_id_cyclic_pattern(RoutingModel::kSourceDestination);
  const auto stats = estimate_delivery_rate(g, *pattern, 0, 5, 0.2, 4000, 3);
  // 15 edges * 0.2 = 3 expected failures, biased slightly low by the
  // connectivity conditioning.
  EXPECT_NEAR(stats.mean_failures, 3.0, 0.7);
}

TEST(RandomFailures, TouringRateOnOuterplanarIsOne) {
  const Graph g = make_random_maximal_outerplanar(8, 2);
  const auto pattern = make_outerplanar_touring(g);
  ASSERT_NE(pattern, nullptr);
  const auto stats = estimate_touring_rate(g, *pattern, 0, 0.25, 2000, 5);
  EXPECT_DOUBLE_EQ(stats.delivery_rate, 1.0);
}

TEST(RandomFailures, IidSourceRejectsProbabilityOutsideUnitInterval) {
  // p feeds coin_threshold, which casts p * 2^64 to an integer: NaN there is
  // undefined behaviour, so the constructor refuses it with every other p
  // outside [0, 1]. Both ends of the interval stay legal.
  const Graph k5 = make_complete(5);
  for (const double p : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(), -0.01, 1.01,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)RandomFailureSource::iid(k5, p, 2, 1, {{0, 4}}), std::invalid_argument)
        << "p=" << p;
  }
  for (const double p : {0.0, 1.0}) {
    auto source = RandomFailureSource::iid(k5, p, 2, 1, {{0, 4}});
    EXPECT_EQ(source.total_hint(), 2);
  }
}

}  // namespace
}  // namespace pofl
