// Group-parallel routing conformance: the lockstep word-packed core
// (route_groups_fast) must be bit-identical — outcome and hop count per
// packet, and every tally — to route_packet_fast, exhaustively over the
// canonical benchmark workloads; and the SweepEngine, whose one batch loop
// rides that core, must reproduce a test-local per-scenario reference loop
// exactly at 1 and N threads: SweepReports across repeated runs on one
// engine (warm pooled decision caches), with stretch, an oracle or a custom
// promise, and for touring patterns, plus find_first_violation's index and
// witness.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_oracle.hpp"
#include "resilience/algorithm1_k5.hpp"
#include "routing/simulator.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

SweepOptions threads(int n) {
  SweepOptions o;
  o.num_threads = n;
  return o;
}

void expect_stats_equal(const SweepStats& a, const SweepStats& b, const char* what) {
  EXPECT_EQ(a.total, b.total) << what;
  EXPECT_EQ(a.promise_broken, b.promise_broken) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.looped, b.looped) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.invalid, b.invalid) << what;
  EXPECT_EQ(a.failures_seen, b.failures_seen) << what;
  EXPECT_EQ(a.hops_delivered, b.hops_delivered) << what;
  EXPECT_EQ(a.stretch_samples, b.stretch_samples) << what;
  EXPECT_EQ(a.stretch_sum_q32, b.stretch_sum_q32) << what;
  EXPECT_EQ(a.max_stretch, b.max_stretch) << what;
}

void expect_reports_equal(const SweepReport& a, const SweepReport& b, const char* what) {
  expect_stats_equal(a.totals, b.totals, what);
  ASSERT_EQ(a.per_pair.size(), b.per_pair.size()) << what;
  for (size_t i = 0; i < a.per_pair.size(); ++i) {
    EXPECT_EQ(a.per_pair[i].source, b.per_pair[i].source) << what;
    EXPECT_EQ(a.per_pair[i].destination, b.per_pair[i].destination) << what;
    expect_stats_equal(a.per_pair[i].stats, b.per_pair[i].stats, what);
  }
}

/// Routes every (mask, pair) scenario once through route_groups_fast (one
/// call per failure set, all pairs lockstep in one shared group) and once through
/// route_packet_fast, asserting bit-identical per-packet results and that
/// the tally is the exact fold of those results.
void expect_group_equivalence_exhaustive(
    const Graph& g, const ForwardingPattern& pattern,
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  const SimContext ctx(g);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;
  const int count = static_cast<int>(pairs.size());
  std::vector<VertexId> src(pairs.size()), dst(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].first;
    dst[i] = pairs[i].second;
  }
  std::vector<FastRouteResult> results(pairs.size());
  const uint64_t limit = uint64_t{1} << g.num_edges();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    const IdSet failures = edge_mask_to_set(g, mask);
    const IdSet* const fsets[] = {&failures};
    const GroupRouteTally tally = route_groups_fast(ctx, pattern, fsets, nullptr, src.data(),
                                                    dst.data(), count, group_ws, results.data());
    GroupRouteTally refold;
    for (int i = 0; i < count; ++i) {
      const FastRouteResult scalar =
          route_packet_fast(ctx, pattern, failures, src[i], Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome)
          << "mask=" << mask << " s=" << src[i] << " t=" << dst[i];
      ASSERT_EQ(results[i].hops, scalar.hops)
          << "mask=" << mask << " s=" << src[i] << " t=" << dst[i];
      switch (results[i].outcome) {
        case RoutingOutcome::kDelivered:
          ++refold.delivered;
          refold.hops_delivered += results[i].hops;
          break;
        case RoutingOutcome::kLooped:
          ++refold.looped;
          break;
        case RoutingOutcome::kDropped:
          ++refold.dropped;
          break;
        case RoutingOutcome::kInvalidForward:
          ++refold.invalid;
          break;
      }
    }
    ASSERT_EQ(tally.delivered, refold.delivered) << "mask=" << mask;
    ASSERT_EQ(tally.looped, refold.looped) << "mask=" << mask;
    ASSERT_EQ(tally.dropped, refold.dropped) << "mask=" << mask;
    ASSERT_EQ(tally.invalid, refold.invalid) << "mask=" << mask;
    ASSERT_EQ(tally.hops_delivered, refold.hops_delivered) << "mask=" << mask;
  }
}

TEST(GroupRouteFast, BitIdenticalToScalarOnExhaustiveK5) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  expect_group_equivalence_exhaustive(k5, *pattern, pairs);
}

TEST(GroupRouteFast, BitIdenticalToScalarOnExhaustiveK33) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  expect_group_equivalence_exhaustive(k33, *pattern, all_ordered_pairs(k33));
}

TEST(GroupRoutesFast, MixedGroupsWithDenseOrdinalsSpanChunks) {
  // Pack many failure-set groups of uneven span into single
  // route_groups_fast calls so chunks of 64 packets straddle group
  // boundaries — the ordinal-slot machinery, not just one shared group, is
  // what the engine exercises. K3,3's 512 single/double-failure
  // masks with a rotating subset of pairs give 16+ groups per call.
  const Graph g = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, g);
  const SimContext ctx(g);
  const auto pairs = all_ordered_pairs(g);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;

  std::vector<IdSet> sets;
  for (uint64_t mask = 0; mask < (uint64_t{1} << g.num_edges()); ++mask) {
    if (__builtin_popcountll(mask) <= 2) sets.push_back(edge_mask_to_set(g, mask));
  }

  std::vector<const IdSet*> fsets;
  std::vector<int32_t> ord;
  std::vector<VertexId> src, dst;
  auto flush = [&] {
    if (src.empty()) return;
    std::vector<FastRouteResult> results(src.size());
    (void)route_groups_fast(ctx, *pattern, fsets.data(), ord.data(), src.data(), dst.data(),
                            static_cast<int>(src.size()), group_ws, results.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const FastRouteResult scalar = route_packet_fast(ctx, *pattern, *fsets[ord[i]], src[i],
                                                       Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome) << "packet " << i;
      ASSERT_EQ(results[i].hops, scalar.hops) << "packet " << i;
    }
    fsets.clear();
    ord.clear();
    src.clear();
    dst.clear();
  };

  size_t next_pair = 0;
  for (size_t si = 0; si < sets.size(); ++si) {
    fsets.push_back(&sets[si]);
    const int32_t o = static_cast<int32_t>(fsets.size()) - 1;
    // Uneven spans (1..7 packets) so chunk boundaries land mid-group.
    const size_t span = 1 + si % 7;
    for (size_t k = 0; k < span; ++k) {
      const auto& [s, t] = pairs[next_pair++ % pairs.size()];
      src.push_back(s);
      dst.push_back(t);
      ord.push_back(o);
    }
    if (src.size() >= 200) flush();
  }
  flush();
}

TEST(GroupRoutesFast, FatTreeWideGraphSingleFailureStratum) {
  // Fat-tree k=6 has 108 edges, past the 64-edge word: this drives the
  // port-mask (non edge-word) side of the decision cache. |F| <= 1 stratum,
  // all failure sets, host-to-host pairs.
  const Graph ft = make_fat_tree(6);
  ASSERT_GT(ft.num_edges(), 64);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  const SimContext ctx(ft);
  RoutingWorkspace group_ws;
  RoutingWorkspace scalar_ws;

  std::vector<std::pair<VertexId, VertexId>> pairs;
  const int step = 3;
  for (VertexId s = 0; s < ft.num_vertices(); s += step) {
    for (VertexId t = 0; t < ft.num_vertices(); t += step) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  std::vector<VertexId> src(pairs.size()), dst(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].first;
    dst[i] = pairs[i].second;
  }
  std::vector<FastRouteResult> results(pairs.size());

  std::vector<IdSet> strata;
  strata.push_back(ft.empty_edge_set());
  for (EdgeId e = 0; e < ft.num_edges(); ++e) {
    IdSet f = ft.empty_edge_set();
    f.insert(e);
    strata.push_back(std::move(f));
  }
  for (const IdSet& failures : strata) {
    const IdSet* const fsets[] = {&failures};
    (void)route_groups_fast(ctx, *pattern, fsets, nullptr, src.data(), dst.data(),
                            static_cast<int>(src.size()), group_ws, results.data());
    for (size_t i = 0; i < src.size(); ++i) {
      const FastRouteResult scalar =
          route_packet_fast(ctx, *pattern, failures, src[i], Header{src[i], dst[i]}, scalar_ws);
      ASSERT_EQ(results[i].outcome, scalar.outcome) << "s=" << src[i] << " t=" << dst[i];
      ASSERT_EQ(results[i].hops, scalar.hops) << "s=" << src[i] << " t=" << dst[i];
    }
  }
}

// ---- engine vs a per-scenario reference loop -------------------------------

/// What the reference loop computes: the report run_report() must equal
/// (oracle counters on the totals, as the engine reports them) and the first
/// violation with its walk-recording witness.
struct Reference {
  SweepReport report;
  std::optional<SweepFinding> first;
};

/// The engine's semantics spelled one scenario at a time, with none of its
/// batching, grouping, union-find or lockstep machinery: drain `source`
/// through the legacy Scenario wrapper; decide the promise (custom
/// predicate, else touring holds, else the oracle or plain connectivity);
/// then route_packet_fast / tour_packet_fast, tally_route / tally_tour, and
/// tally_stretch from distance() on delivery.
Reference reference_sweep(const Graph& g, const ForwardingPattern& pattern,
                          ScenarioSource& source, const SweepOptions& opts) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  ConnectivityOracle* const oracle = opts.oracle;
  const int64_t hits_before = oracle != nullptr ? oracle->hits() : 0;
  const int64_t misses_before = oracle != nullptr ? oracle->misses() : 0;
  std::map<std::pair<VertexId, VertexId>, SweepStats> rows;
  Reference ref;
  int64_t index = 0;
  std::vector<Scenario> batch;
  for (;;) {
    batch.clear();
    if (source.next_batch(256, batch) == 0) break;
    for (const Scenario& sc : batch) {
      const int64_t at = index++;
      SweepStats& st = rows[{sc.source, sc.destination}];
      ++st.total;
      const bool touring = sc.destination == kNoVertex;
      bool held = true;
      if (opts.promise) {
        held = opts.promise(g, sc);
      } else if (!touring && sc.source != sc.destination) {
        held = oracle != nullptr ? oracle->connected(sc.source, sc.destination, sc.failures)
                                 : connected(g, sc.source, sc.destination, sc.failures);
      }
      if (!held) {
        ++st.promise_broken;
        continue;
      }
      st.failures_seen += sc.failures.count();
      bool violated = false;
      if (touring) {
        const FastTourResult r = tour_packet_fast(ctx, pattern, sc.failures, sc.source, ws);
        st.tally_tour(r.success, r.dropped, r.steps_walked);
        violated = !r.success;
      } else {
        const FastRouteResult r = route_packet_fast(ctx, pattern, sc.failures, sc.source,
                                                    Header{sc.source, sc.destination}, ws);
        st.tally_route(r.outcome, r.hops);
        violated = r.outcome != RoutingOutcome::kDelivered;
        if (!violated && opts.compute_stretch) {
          const auto dist = distance(g, sc.source, sc.destination, sc.failures);
          if (dist.has_value() && *dist >= 1) st.tally_stretch(r.hops, *dist);
        }
      }
      if (violated && !ref.first.has_value()) {
        SweepFinding f;
        f.index = at;
        f.scenario = sc;
        if (touring) {
          f.tour = tour_packet(ctx, pattern, sc.failures, sc.source, ws);
        } else {
          f.routing = route_packet(ctx, pattern, sc.failures, sc.source,
                                   Header{sc.source, sc.destination}, ws);
        }
        ref.first = std::move(f);
      }
    }
  }
  for (const auto& [pair, stats] : rows) {
    ref.report.totals.merge(stats);
    ref.report.per_pair.push_back(PairStats{pair.first, pair.second, stats});
  }
  if (oracle != nullptr) {
    ref.report.totals.oracle_hits = oracle->hits() - hits_before;
    ref.report.totals.oracle_misses = oracle->misses() - misses_before;
  }
  return ref;
}

void expect_findings_equal(const std::optional<SweepFinding>& got,
                           const std::optional<SweepFinding>& want, const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want.has_value()) return;
  EXPECT_EQ(got->index, want->index) << what;
  EXPECT_EQ(got->scenario.source, want->scenario.source) << what;
  EXPECT_EQ(got->scenario.destination, want->scenario.destination) << what;
  EXPECT_TRUE(got->scenario.failures == want->scenario.failures) << what;
  EXPECT_EQ(got->routing.outcome, want->routing.outcome) << what;
  EXPECT_EQ(got->routing.hops, want->routing.hops) << what;
  EXPECT_EQ(got->routing.walk, want->routing.walk) << what;
  EXPECT_EQ(got->tour.success, want->tour.success) << what;
  EXPECT_EQ(got->tour.dropped, want->tour.dropped) << what;
  EXPECT_EQ(got->tour.steps_walked, want->tour.steps_walked) << what;
  EXPECT_EQ(got->tour.walk, want->tour.walk) << what;
  EXPECT_EQ(got->tour.missed, want->tour.missed) << what;
}

constexpr int kThreadCounts[] = {1, 4};

TEST(SweepEngineGroupRouting, ReportMatchesScalarPathAcrossThreadCounts) {
  const Graph k5 = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);

  ExhaustiveFailureSource ref_src(k5, k5.num_edges(), pairs);
  const SweepReport ref = reference_sweep(k5, *pattern, ref_src, threads(1)).report;
  for (const int n : kThreadCounts) {
    ExhaustiveFailureSource src(k5, k5.num_edges(), pairs);
    expect_reports_equal(SweepEngine(threads(n)).run_report(k5, *pattern, src), ref,
                         n == 1 ? "engine 1t" : "engine 4t");
    src.reset();
    expect_stats_equal(SweepEngine(threads(n)).run(k5, *pattern, src), ref.totals,
                       n == 1 ? "run() 1t" : "run() 4t");
  }
}

TEST(SweepEngineGroupRouting, FatTreeStratumMatchesScalarPath) {
  const Graph ft = make_fat_tree(4);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, ft);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < ft.num_vertices(); s += 2) {
    for (VertexId t = 0; t < ft.num_vertices(); t += 2) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  ExhaustiveFailureSource ref_src(ft, 1, pairs);
  const SweepReport ref = reference_sweep(ft, *pattern, ref_src, threads(1)).report;
  for (const int n : kThreadCounts) {
    ExhaustiveFailureSource src(ft, 1, pairs);
    expect_reports_equal(SweepEngine(threads(n)).run_report(ft, *pattern, src), ref,
                         n == 1 ? "fat-tree 1t" : "fat-tree 4t");
  }
}

TEST(SweepEngineGroupRouting, RepeatedRunsOnOneEngineStayIdentical) {
  // One engine, repeated runs: worker slots (and their decision caches) come
  // back out of the pool warm, and must not change a single counter.
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  ExhaustiveFailureSource ref_src(k33, k33.num_edges(), all_ordered_pairs(k33));
  const SweepReport ref = reference_sweep(k33, *pattern, ref_src, threads(1)).report;

  const Graph k5 = make_complete(5);
  const auto k5pat = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> k5pairs;
  for (VertexId s = 0; s < 4; ++s) k5pairs.emplace_back(s, 4);

  for (const int n : kThreadCounts) {
    const SweepEngine engine(threads(n));
    auto once = [&] {
      ExhaustiveFailureSource src(k33, k33.num_edges(), all_ordered_pairs(k33));
      return engine.run_report(k33, *pattern, src);
    };
    expect_reports_equal(once(), ref, "first run, cold pool");
    expect_reports_equal(once(), ref, "second run, warm pool");
    expect_reports_equal(once(), ref, "third run, warm pool");

    // And the warm pool keeps tracking the right identity when the engine is
    // pointed at a different (graph, pattern) in between.
    ExhaustiveFailureSource k5src(k5, k5.num_edges(), k5pairs);
    (void)engine.run(k5, *k5pat, k5src);
    expect_reports_equal(once(), ref, "after an interleaved foreign run");
  }
}

TEST(SweepEngineGroupRouting, StretchTalliesMatchScalarPath) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  SweepOptions base;
  base.compute_stretch = true;
  ExhaustiveFailureSource ref_src(k33, 2, all_ordered_pairs(k33));
  const SweepReport ref = reference_sweep(k33, *pattern, ref_src, base).report;
  EXPECT_GT(ref.totals.stretch_samples, 0);
  for (const int n : kThreadCounts) {
    ExhaustiveFailureSource src(k33, 2, all_ordered_pairs(k33));
    SweepOptions o = base;
    o.num_threads = n;
    expect_reports_equal(SweepEngine(o).run_report(k33, *pattern, src), ref,
                         n == 1 ? "stretch 1t" : "stretch 4t");
  }
}

TEST(SweepEngineGroupRouting, OracleAttachedPathMatchesScalarCounters) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto pattern = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k33);
  auto with_oracle = [](ConnectivityOracle& oracle, int n) {
    SweepOptions o = threads(n);
    o.oracle = &oracle;
    return o;
  };
  ConnectivityOracle ref_oracle(k33);
  ExhaustiveFailureSource ref_src(k33, k33.num_edges(), all_ordered_pairs(k33));
  const SweepStats ref =
      reference_sweep(k33, *pattern, ref_src, with_oracle(ref_oracle, 1)).report.totals;
  EXPECT_GT(ref.oracle_hits, 0);
  for (const int n : kThreadCounts) {
    ConnectivityOracle oracle(k33);
    ExhaustiveFailureSource src(k33, k33.num_edges(), all_ordered_pairs(k33));
    const SweepStats got = SweepEngine(with_oracle(oracle, n)).run(k33, *pattern, src);
    expect_stats_equal(got, ref, n == 1 ? "oracle 1t" : "oracle 4t");
    // The engine consults the oracle once per scenario, like the reference.
    // With one worker the stream order is the same, so hits and misses
    // agree exactly; concurrent workers may both miss on one failure set.
    EXPECT_EQ(got.oracle_hits + got.oracle_misses, ref.oracle_hits + ref.oracle_misses);
    if (n == 1) {
      EXPECT_EQ(got.oracle_hits, ref.oracle_hits);
      EXPECT_EQ(got.oracle_misses, ref.oracle_misses);
    }
  }
}

TEST(SweepEngineGroupRouting, CustomPromiseRidesTheGroupPath) {
  // A custom predicate sees each scenario once, in stream order inside its
  // batch: an r-tolerance-style promise (two link-disjoint paths survive)
  // must break exactly the scenarios the reference breaks.
  const Graph g = make_complete(5);
  const auto pattern = make_algorithm1_k5();
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId s = 0; s < 4; ++s) pairs.emplace_back(s, 4);
  SweepOptions base;
  base.promise = [](const Graph& gg, const Scenario& sc) {
    return edge_connectivity(gg, sc.source, sc.destination, sc.failures) >= 2;
  };
  ExhaustiveFailureSource ref_src(g, 3, pairs);
  const SweepReport ref = reference_sweep(g, *pattern, ref_src, base).report;
  EXPECT_GT(ref.totals.promise_broken, 0);
  for (const int n : kThreadCounts) {
    ExhaustiveFailureSource src(g, 3, pairs);
    SweepOptions o = base;
    o.num_threads = n;
    expect_reports_equal(SweepEngine(o).run_report(g, *pattern, src), ref,
                         n == 1 ? "custom promise 1t" : "custom promise 4t");
    src.reset();
    expect_stats_equal(SweepEngine(o).run(g, *pattern, src), ref.totals,
                       n == 1 ? "custom promise run() 1t" : "custom promise run() 4t");
  }
}

TEST(SweepEngineGroupRouting, TouringScenariosMatchScalarPath) {
  // Touring scenarios never enter the packed router (tours are walks, not
  // (s, t) packets) but flow through the same batch loop; the tallies must
  // agree with the reference, with and without a custom promise narrowing
  // the touring quantifier.
  class AroundPattern final : public ForwardingPattern {
   public:
    [[nodiscard]] RoutingModel model() const override { return RoutingModel::kTouring; }
    [[nodiscard]] std::string name() const override { return "around"; }
    [[nodiscard]] std::optional<EdgeId> forward(const Graph& g, VertexId at, EdgeId inport,
                                                const IdSet& failures,
                                                const Header&) const override {
      for (EdgeId e : g.incident_edges(at)) {
        if (e != inport && !failures.contains(e)) return e;
      }
      return inport != kNoEdge && !failures.contains(inport) ? std::optional<EdgeId>(inport)
                                                             : std::nullopt;
    }
  };
  const Graph g = make_cycle(6);
  AroundPattern pattern;
  std::vector<std::pair<VertexId, VertexId>> starts;
  for (VertexId v = 0; v < g.num_vertices(); ++v) starts.emplace_back(v, kNoVertex);
  SweepOptions narrowed;
  narrowed.promise = [](const Graph&, const Scenario& sc) { return sc.failures.count() != 1; };
  for (const SweepOptions& base : {SweepOptions{}, narrowed}) {
    ExhaustiveFailureSource ref_src(g, 2, starts);
    const SweepReport ref = reference_sweep(g, pattern, ref_src, base).report;
    for (const int n : kThreadCounts) {
      ExhaustiveFailureSource src(g, 2, starts);
      SweepOptions o = base;
      o.num_threads = n;
      expect_reports_equal(SweepEngine(o).run_report(g, pattern, src), ref,
                           n == 1 ? "touring 1t" : "touring 4t");
    }
  }
}

TEST(SweepEngineGroupRouting, FirstViolationMatchesReferenceLoop) {
  // find_first_violation consumes batches through the same loop and pins
  // the smallest violating stream index: it must name the reference loop's
  // first violation and re-simulate the same witness, at 1 and 4 threads.
  // Small batches spread the stream over many workers.
  const auto check = [](const Graph& g, const ForwardingPattern& pattern,
                        ScenarioSource& source, const SweepOptions& base, const char* what) {
    source.reset();
    const Reference ref = reference_sweep(g, pattern, source, base);
    ASSERT_TRUE(ref.first.has_value()) << what;
    EXPECT_GT(ref.first->index, 64) << what;  // past the first few batches
    for (const int n : kThreadCounts) {
      SweepOptions o = base;
      o.num_threads = n;
      o.batch_size = 16;
      source.reset();
      expect_findings_equal(SweepEngine(o).find_first_violation(g, pattern, source), ref.first,
                            what);
    }
  };

  // r-tolerance: the shortest-path pattern on K6 under "two link-disjoint
  // s-t paths survive", three pairs per failure set, every failure set.
  const Graph k6 = make_complete(6);
  const auto sp = make_shortest_path_pattern(RoutingModel::kDestinationOnly, k6);
  SweepOptions r2;
  r2.promise = [](const Graph& gg, const Scenario& sc) {
    return edge_connectivity(gg, sc.source, sc.destination, sc.failures) >= 2;
  };
  ExhaustiveFailureSource r2_src(k6, k6.num_edges(), {{0, 5}, {1, 5}, {2, 5}});
  check(k6, *sp, r2_src, r2, "r-tolerance");

  // Touring: id-cyclic failover from every start of K3,3, every failure set.
  const Graph k33 = make_complete_bipartite(3, 3);
  const auto cyclic = make_id_cyclic_pattern(RoutingModel::kTouring);
  std::vector<std::pair<VertexId, VertexId>> starts;
  for (VertexId v = 0; v < k33.num_vertices(); ++v) starts.emplace_back(v, kNoVertex);
  ExhaustiveFailureSource tour_src(k33, k33.num_edges(), starts);
  check(k33, *cyclic, tour_src, SweepOptions{}, "touring");
}

}  // namespace
}  // namespace pofl
