#pragma once

// Random link failures — the scenario the paper's conclusion (§IX) names as
// the next research direction: "it would be interesting to chart a similar
// landscape for the practically relevant scenarios in which link failures
// are random". This module estimates, by Monte Carlo, the probability that
// a pattern delivers (or tours) conditioned on the promise holding
// (source and destination connected / component non-trivial), under i.i.d.
// per-link failure probability p.
//
// A test-only reference: a plain per-trial loop that draws exactly like
// RandomFailureSource::iid, so the sweep engine's aggregates can be checked
// against it bit for bit (tests/random_failures_test).

#include <cstdint>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"

namespace pofl {

struct RandomFailureStats {
  int trials_with_promise = 0;  // failure draws where s,t stayed connected
  int delivered = 0;
  double delivery_rate = 0.0;   // delivered / trials_with_promise
  double mean_failures = 0.0;   // average |F| among promise-holding draws
  double mean_hops = 0.0;       // average hop count among deliveries
};

/// Delivery probability of a routing pattern from s to t under i.i.d. link
/// failure probability p, conditioned on s-t connectivity.
[[nodiscard]] RandomFailureStats estimate_delivery_rate(const Graph& g,
                                                        const ForwardingPattern& pattern,
                                                        VertexId s, VertexId t, double p,
                                                        int trials, uint64_t seed = 1);

/// Touring version: success probability of touring the start's surviving
/// component under i.i.d. failures.
[[nodiscard]] RandomFailureStats estimate_touring_rate(const Graph& g,
                                                       const ForwardingPattern& pattern,
                                                       VertexId start, double p, int trials,
                                                       uint64_t seed = 1);

}  // namespace pofl
