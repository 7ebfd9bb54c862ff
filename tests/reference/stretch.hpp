#pragma once

// Stretch of failover walks. The paper's related-work discussion ([5]-[8]:
// "a robust route is not necessarily the shortest route") motivates
// measuring the detour cost of resilient patterns: the ratio between the
// walk a pattern produces under failures and the shortest surviving path.
//
// A test-only reference: a plain per-trial loop that draws exactly like
// RandomFailureSource::exact_count, against which the engine's stretch
// tallies are cross-checked (tests/stretch_test).

#include <cstdint>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"

namespace pofl {

struct StretchStats {
  int samples = 0;            // failure draws with s,t connected and delivery
  int failed_deliveries = 0;  // promise held but the packet did not arrive
  double mean_stretch = 0.0;  // hops / dist_{G\F}(s,t), averaged
  double max_stretch = 0.0;
  double mean_hops = 0.0;
};

/// Stretch of a pattern between s and t under random failure sets of exactly
/// `num_failures` links (uniform among sets keeping s,t connected; draws
/// where the promise breaks are skipped, non-deliveries are counted).
[[nodiscard]] StretchStats measure_stretch(const Graph& g, const ForwardingPattern& pattern,
                                           VertexId s, VertexId t, int num_failures, int trials,
                                           uint64_t seed = 1);

}  // namespace pofl
