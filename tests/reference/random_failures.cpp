#include "reference/random_failures.hpp"

#include "graph/connectivity.hpp"
#include "graph/fast_rand.hpp"
#include "routing/simulator.hpp"

namespace pofl {

// Both estimators draw with the shared fast Monte Carlo primitives, one
// i.i.d. draw per trial into a reused mask — the identical call sequence as
// RandomFailureSource::iid, so the sweep engine reproduces these legacy
// aggregates bit for bit at equal seeds (pinned in random_failures_test).

RandomFailureStats estimate_delivery_rate(const Graph& g, const ForwardingPattern& pattern,
                                          VertexId s, VertexId t, double p, int trials,
                                          uint64_t seed) {
  FastRng rng(seed);
  const uint64_t threshold = coin_threshold(p);
  RandomFailureStats stats;
  long long failures_total = 0;
  long long hops_total = 0;
  const SimContext ctx(g);
  RoutingWorkspace ws;
  IdSet f;
  for (int i = 0; i < trials; ++i) {
    iid_sample(rng, g.num_edges(), threshold, f);
    if (!connected(g, s, t, f)) continue;
    ++stats.trials_with_promise;
    failures_total += f.count();
    const FastRouteResult r = route_packet_fast(ctx, pattern, f, s, Header{s, t}, ws);
    if (r.outcome == RoutingOutcome::kDelivered) {
      ++stats.delivered;
      hops_total += r.hops;
    }
  }
  if (stats.trials_with_promise > 0) {
    stats.delivery_rate = static_cast<double>(stats.delivered) / stats.trials_with_promise;
    stats.mean_failures = static_cast<double>(failures_total) / stats.trials_with_promise;
  }
  if (stats.delivered > 0) {
    stats.mean_hops = static_cast<double>(hops_total) / stats.delivered;
  }
  return stats;
}

RandomFailureStats estimate_touring_rate(const Graph& g, const ForwardingPattern& pattern,
                                         VertexId start, double p, int trials, uint64_t seed) {
  FastRng rng(seed);
  const uint64_t threshold = coin_threshold(p);
  RandomFailureStats stats;
  long long failures_total = 0;
  long long hops_total = 0;
  const SimContext ctx(g);
  RoutingWorkspace ws;
  IdSet f;
  for (int i = 0; i < trials; ++i) {
    iid_sample(rng, g.num_edges(), threshold, f);
    ++stats.trials_with_promise;  // touring's promise is unconditional
    failures_total += f.count();
    const FastTourResult r = tour_packet_fast(ctx, pattern, f, start, ws);
    if (r.success) {
      ++stats.delivered;
      hops_total += r.steps_walked;
    }
  }
  stats.delivery_rate = static_cast<double>(stats.delivered) / stats.trials_with_promise;
  stats.mean_failures = static_cast<double>(failures_total) / stats.trials_with_promise;
  if (stats.delivered > 0) {
    stats.mean_hops = static_cast<double>(hops_total) / stats.delivered;
  }
  return stats;
}

}  // namespace pofl
