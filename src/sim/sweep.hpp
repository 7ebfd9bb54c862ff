#pragma once

// Parallel scenario-sweep engine.
//
// Every bench used to hand-roll the same triple loop — graphs x failure sets
// x (source, destination) pairs — around route_packet. The SweepEngine
// factors that loop out once: a ScenarioSource streams (F, s, t) questions,
// a worker pool batches them through the routing and touring cores, and the
// per-worker tallies merge into one SweepStats. All counters are integer
// sums, so the aggregate is identical for 1 and N threads; the floating
// stretch sums are order-sensitive only in the last ulp.
//
// Workers pull zero-copy ScenarioBatches: each worker owns one reusable
// batch that the source refills in place under the producer lock, and the
// hot loop borrows failure sets from the batch's group storage — no
// per-scenario Scenario construction, no IdSet copies, no allocation in
// steady state on either side of the producer/consumer boundary.
//
// Every entry point consumes whole batches through one loop: each batch's
// scenarios are promise-filtered group by group in stream order, then every
// admitted packet of the batch is routed in one route_groups_fast call —
// lockstep chunks of up to 64 packets (packets of different failure-set
// groups share a chunk, so 4-pair exhaustive groups and Monte Carlo
// singletons still fill the word-packed machinery) whose seen/terminated
// state lives in 64-bit words, with forwarding transitions memoized per
// (header class, state, local failure mask) in the worker's workspace.
// Worker scratch persists across runs in an engine-owned pool, so the
// decision cache stays warm for repeated sweeps of the same (graph,
// pattern). Per packet, outcomes and hop counts are bit-identical to
// route_packet_fast (tests/group_route_test.cpp checks the engine against a
// test-local per-scenario loop; the golden baselines pin the bytes).
//
// The promise discipline matches the paper: a scenario whose failure set
// disconnects s from t breaks the promise and is tallied separately — rates
// are always conditioned on the promise holding (touring scenarios hold
// unconditionally, §VII). A custom promise predicate generalizes this to the
// paper's other quantifier families (r-tolerance, distance promises), and a
// shared ConnectivityOracle caches the default connectivity check across the
// pairs and patterns that revisit the same failure set.
//
// Three entry points:
//   run()                  aggregate tallies (the original mode);
//   run_report()           the same plus per-(source, destination) breakdowns;
//   find_first_violation() early-exit verification — stops the pool as soon
//                          as the earliest violation in the canonical
//                          scenario order is pinned down, with a result that
//                          is invariant under the worker-thread count.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/connectivity_oracle.hpp"
#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "routing/simulator.hpp"
#include "sim/scenario.hpp"

namespace pofl {

/// Decides whether a scenario is inside the promise (violations only count
/// inside it). Called concurrently from workers, once per scenario in
/// stream order within each batch: must be pure. When unset, the default
/// promise is "s and t connected in G \ F" for routing scenarios and
/// "always" for touring scenarios.
using PromiseCheck = std::function<bool(const Graph&, const Scenario&)>;

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency. 1 runs inline (no pool).
  int num_threads = 0;
  /// Scenarios handed to a worker per lock acquisition.
  int batch_size = 256;
  /// Also BFS the surviving graph on each delivery to accumulate stretch
  /// (hops / dist_{G\F}(s, t)). Costs one BFS per delivered scenario.
  bool compute_stretch = false;
  /// Shared connectivity cache for the default promise check. Scenario
  /// streams are failure-set-major, so one cached component BFS answers the
  /// promise for every pair under that failure set. Not owned.
  ConnectivityOracle* oracle = nullptr;
  /// Custom promise predicate; overrides the default connectivity check.
  PromiseCheck promise;
};

/// Aggregate outcome tallies of one sweep. The integer counters satisfy
///   delivered + looped + dropped + invalid == promise_held()
///   promise_held() + promise_broken == total
/// regardless of thread count.
///
/// Every accumulator is an exact integer sum or an exact max — including
/// stretch, which is held in Q32 fixed point rather than a floating sum —
/// so merge() is associative and commutative bit for bit. That is what lets
/// N-shard (and N-thread) partial stats merge into a result identical to
/// the unsharded sequential sweep, which the golden-baseline conformance
/// suite checks byte for byte.
struct SweepStats {
  int64_t total = 0;           // scenarios consumed from the source
  int64_t promise_broken = 0;  // s-t disconnected: excluded from the rates
  int64_t delivered = 0;       // routing delivered / tour succeeded
  int64_t looped = 0;          // state repeated (incl. failed tours)
  int64_t dropped = 0;
  int64_t invalid = 0;         // pattern forwarded onto a failed/absent edge

  int64_t failures_seen = 0;   // sum |F| over promise-holding scenarios
  int64_t hops_delivered = 0;  // sum hops over delivered scenarios

  int64_t stretch_samples = 0;  // deliveries with dist >= 1 (stretch mode)
  /// Sum of per-scenario stretch (hops / dist) in Q32 fixed point:
  /// each sample contributes floor(hops * 2^32 / dist), computed exactly in
  /// integer arithmetic. An integer sum is order-invariant, so sharded and
  /// multi-threaded sweeps reproduce the sequential sum exactly (a floating
  /// sum is not associative). Accumulation saturates at INT64_MAX past
  /// ~2^31 accumulated stretch units (hundreds of millions of deliveries
  /// at typical stretch) instead of wrapping, so a sweep that large yields
  /// a visibly pegged sum rather than silent garbage.
  int64_t stretch_sum_q32 = 0;
  /// Max over per-scenario stretch doubles; max is order-invariant as is.
  double max_stretch = 0.0;

  // Connectivity-oracle accounting for this sweep (zero when no oracle is
  // attached): hits are promise checks answered from the cache — i.e.
  // disconnected scenarios skipped, and connected ones admitted, without
  // repeating the BFS. Evictions count cached label vectors displaced by the
  // oracle's second-chance policy once its capacity is reached.
  int64_t oracle_hits = 0;
  int64_t oracle_misses = 0;
  int64_t oracle_evictions = 0;

  [[nodiscard]] int64_t promise_held() const { return total - promise_broken; }
  [[nodiscard]] double delivery_rate() const { return rate(delivered); }
  [[nodiscard]] double loop_rate() const { return rate(looped); }
  [[nodiscard]] double drop_rate() const { return rate(dropped); }
  [[nodiscard]] double invalid_rate() const { return rate(invalid); }
  [[nodiscard]] double mean_failures() const {
    return promise_held() > 0 ? static_cast<double>(failures_seen) / promise_held() : 0.0;
  }
  [[nodiscard]] double mean_hops() const {
    return delivered > 0 ? static_cast<double>(hops_delivered) / delivered : 0.0;
  }
  /// The Q32 stretch sum as a double (for printing and derived rates).
  [[nodiscard]] double stretch_sum() const {
    return static_cast<double>(stretch_sum_q32) * (1.0 / 4294967296.0);
  }
  [[nodiscard]] double mean_stretch() const {
    return stretch_samples > 0 ? stretch_sum() / stretch_samples : 0.0;
  }

  /// Tallies one stretch sample (hops over a distance >= 1), exactly.
  void tally_stretch(int hops, int dist) {
    ++stretch_samples;
    stretch_sum_q32 = saturating_add(stretch_sum_q32, (static_cast<int64_t>(hops) << 32) / dist);
    max_stretch = std::max(max_stretch, static_cast<double>(hops) / dist);
  }

  /// Overflow-safe accumulator add: clamps to INT64_MAX instead of signed
  /// wraparound (UB). Both stretch tallies and merges ride this, so even a
  /// pathological multi-billion-delivery sweep stays defined.
  [[nodiscard]] static int64_t saturating_add(int64_t a, int64_t b) {
    int64_t sum = 0;
    if (__builtin_add_overflow(a, b, &sum)) {
      return std::numeric_limits<int64_t>::max();
    }
    return sum;
  }

  void merge(const SweepStats& other);

  /// Tallies one promise-holding routing outcome (hops count only on
  /// delivery). Shared by the engine's per-pair and stretch tallies, the
  /// per-scenario reference loops in the tests, and bench_perf's baseline
  /// and scalar arms, so the switch lives once.
  void tally_route(RoutingOutcome outcome, int hops) {
    switch (outcome) {
      case RoutingOutcome::kDelivered:
        ++delivered;
        hops_delivered += hops;
        break;
      case RoutingOutcome::kLooped:
        ++looped;
        break;
      case RoutingOutcome::kDropped:
        ++dropped;
        break;
      case RoutingOutcome::kInvalidForward:
        ++invalid;
        break;
    }
  }

  /// Tallies one touring outcome (a successful tour counts as delivered,
  /// its steps as hops; a failed tour is a drop or a loop).
  void tally_tour(bool success, bool was_dropped, int steps_walked) {
    if (success) {
      ++delivered;
      hops_delivered += steps_walked;
    } else if (was_dropped) {
      ++dropped;
    } else {
      ++looped;
    }
  }

 private:
  [[nodiscard]] double rate(int64_t numerator) const {
    return promise_held() > 0 ? static_cast<double>(numerator) / promise_held() : 0.0;
  }
};

/// One (source, destination) row of a per-pair breakdown. Touring scenarios
/// key on (start, kNoVertex). The oracle counters stay in the totals only.
struct PairStats {
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
  SweepStats stats;
};

/// run_report() output: the aggregate plus per-pair rows sorted by
/// (source, destination). totals equals the merge of all rows.
struct SweepReport {
  SweepStats totals;
  std::vector<PairStats> per_pair;

  /// Folds another report in: totals merge, per-pair rows union-merge by
  /// (source, destination) with both row lists (and the result) in sorted
  /// order. Associative and commutative bit for bit — SweepStats carries
  /// only exact integer sums and maxes — so merging N disjoint shard
  /// reports in any order reproduces the unsharded report exactly.
  void merge(const SweepReport& other);
};

/// The earliest violation of a sweep in canonical scenario order: the
/// promise held (under the default or custom check) but the packet was not
/// delivered / the tour did not complete. `index` is the 0-based position in
/// the source's stream, minimal over all violations — identical for 1 and N
/// worker threads.
struct SweepFinding {
  int64_t index = -1;
  Scenario scenario;
  RoutingResult routing;  // filled for routing scenarios
  TourResult tour;        // filled for touring scenarios
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions opts = {});
  ~SweepEngine();
  // The engine owns a pool of per-worker scratch states (workspaces, promise
  // union-finds, decision caches) that persist across runs; pooling makes it
  // non-copyable. Sharing one engine across threads is still fine — the pool
  // hands each concurrent worker its own slot.
  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Drains `source` (from its current position; callers usually reset()
  /// first) through `pattern` on g and returns the merged tallies.
  [[nodiscard]] SweepStats run(const Graph& g, const ForwardingPattern& pattern,
                               ScenarioSource& source) const;

  /// run() plus per-(source, destination) breakdowns.
  [[nodiscard]] SweepReport run_report(const Graph& g, const ForwardingPattern& pattern,
                                       ScenarioSource& source) const;

  /// Early-exit verification sweep: returns the violation with the minimal
  /// stream index, or nullopt if every promise-holding scenario delivered.
  /// Workers race ahead speculatively, but a candidate at index i only stops
  /// production once the stream position passes i and every earlier scenario
  /// has been evaluated — so the reported violation is deterministic and
  /// thread-count-invariant for any deterministic source.
  [[nodiscard]] std::optional<SweepFinding> find_first_violation(
      const Graph& g, const ForwardingPattern& pattern, ScenarioSource& source) const;

  /// find_first_violation over a shard partition: sweeps every shard of
  /// `source` (shard(i, shard_count) for i in [0, shard_count)) and resolves
  /// the canonical-order minimum witness across them — each shard's local
  /// finding index maps through ScenarioSource::global_index, and the
  /// smallest global index wins. The returned SweepFinding::index is the
  /// canonical (unsharded) stream position, so the result is bit-identical
  /// to the unsharded find_first_violation for any shard_count. The source
  /// is left unsharded (shard(0, 1)).
  [[nodiscard]] std::optional<SweepFinding> find_first_violation_sharded(
      const Graph& g, const ForwardingPattern& pattern, ScenarioSource& source,
      int shard_count) const;

  [[nodiscard]] const SweepOptions& options() const { return opts_; }

 private:
  // One worker's reusable scratch (workspace + promise union-find +
  // batch storage), checked out of the pool for the duration of a run and returned
  // afterwards. Persisting these across runs is what keeps the routing
  // decision cache warm between run() calls on the same (graph, pattern) —
  // the cache invalidates itself via Graph/ForwardingPattern uids when
  // either changes. Defined in sweep.cpp.
  struct WorkerSlot;

  [[nodiscard]] SweepReport run_impl(const Graph& g, const ForwardingPattern& pattern,
                                     ScenarioSource& source, bool collect_per_pair) const;
  // Pops (or creates) a slot. The one structure that points into the
  // previous run's graph (the promise union-find) is dropped — it rebuilds lazily, once
  // per run at most. The decision cache is kept: it holds no pointers, and
  // begin_session revalidates it against the Graph/ForwardingPattern uids.
  [[nodiscard]] std::unique_ptr<WorkerSlot> checkout_slot() const;
  void checkin_slot(std::unique_ptr<WorkerSlot> slot) const;

  SweepOptions opts_;
  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<WorkerSlot>> pool_;
};

}  // namespace pofl
