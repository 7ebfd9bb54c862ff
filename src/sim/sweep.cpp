#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/incremental_connectivity.hpp"
#include "routing/simulator.hpp"

namespace pofl {

void SweepStats::merge(const SweepStats& other) {
  total += other.total;
  promise_broken += other.promise_broken;
  delivered += other.delivered;
  looped += other.looped;
  dropped += other.dropped;
  invalid += other.invalid;
  failures_seen += other.failures_seen;
  hops_delivered += other.hops_delivered;
  stretch_samples += other.stretch_samples;
  stretch_sum_q32 = saturating_add(stretch_sum_q32, other.stretch_sum_q32);
  max_stretch = std::max(max_stretch, other.max_stretch);
  oracle_hits += other.oracle_hits;
  oracle_misses += other.oracle_misses;
  oracle_evictions += other.oracle_evictions;
}

void SweepReport::merge(const SweepReport& other) {
  totals.merge(other.totals);
  // Union-merge the sorted row lists; equal (source, destination) keys
  // merge their stats. Touring rows (destination == kNoVertex == -1) sort
  // first, matching run_report's std::map ordering.
  std::vector<PairStats> merged;
  merged.reserve(per_pair.size() + other.per_pair.size());
  size_t a = 0;
  size_t b = 0;
  const auto key = [](const PairStats& row) {
    return std::make_pair(row.source, row.destination);
  };
  while (a < per_pair.size() || b < other.per_pair.size()) {
    if (b == other.per_pair.size() ||
        (a < per_pair.size() && key(per_pair[a]) < key(other.per_pair[b]))) {
      merged.push_back(per_pair[a++]);
    } else if (a == per_pair.size() || key(other.per_pair[b]) < key(per_pair[a])) {
      merged.push_back(other.per_pair[b++]);
    } else {
      merged.push_back(per_pair[a++]);
      merged.back().stats.merge(other.per_pair[b++].stats);
    }
  }
  per_pair = std::move(merged);
}

namespace {

/// Packs a (source, destination) pair into one map key; kNoVertex
/// destinations (touring starts) pack like any other value.
uint64_t pair_key(VertexId s, VertexId t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(t));
}

/// What one batch consumption produces: aggregate tallies, per-pair rows, or
/// the batch position of the first violation (tallies then go unused).
enum class BatchMode { kTotals, kPerPair, kFirstViolation };

/// Worker-reused buffers of batch consumption: the routing request the
/// promise filter admits (with per-packet dense group ordinals and
/// per-ordinal borrowed failure sets), per-packet target/position/result
/// columns (populated only in the modes that need per-packet outcomes), the
/// group promise's rollback union-find, and the Scenario a custom promise
/// predicate is handed.
struct BatchScratch {
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  std::vector<int32_t> ord;          // per packet: dense group ordinal
  std::vector<int32_t> pos;          // per packet: batch position (kFirstViolation)
  std::vector<const IdSet*> fsets;   // per ordinal: that group's failure set
  std::vector<SweepStats*> target;   // per packet: its row (per-pair or stretch)
  std::vector<FastRouteResult> results;
  std::unique_ptr<IncrementalConnectivity> inc;  // lazy: Monte Carlo never builds it
  Scenario promise_scratch;
};

/// Consumes the first n scenarios of a batch — the engine's one scenario
/// loop, behind run(), run_report() and find_first_violation(). Scenarios
/// are promise-filtered group by group in stream order, then every admitted
/// packet of the batch is routed in a single route_groups_fast call (packets
/// of different groups share lockstep chunks, so small groups still fill
/// the 64-wide machinery). Touring scenarios take the tour core inline.
///
/// The promise is the custom predicate when one is set, else exact s-t
/// connectivity in G \ F: the oracle (when attached) answers per scenario;
/// a multi-scenario group moves the rollback union-find once and answers
/// every pair with two finds; a singleton group (each Monte Carlo draw is
/// its own group) runs one early-exit BFS. All three give the same boolean,
/// so every counter is independent of which one answers.
///
/// Returns the batch position of the first violation (promise held, packet
/// not delivered / tour incomplete) in kFirstViolation mode, else -1.
int process_batch(const SimContext& ctx, const ForwardingPattern& pattern,
                  const ScenarioBatch& batch, int n, const SweepOptions& opts, BatchMode mode,
                  SweepStats& local, std::unordered_map<uint64_t, SweepStats>& local_pairs,
                  RoutingWorkspace& ws, BatchScratch& scratch) {
  const Graph& g = ctx.graph();
  const bool find = mode == BatchMode::kFirstViolation;
  const bool collect_per_pair = mode == BatchMode::kPerPair;
  // Stretch is a tally, which the violation search never reads.
  const bool per_packet = collect_per_pair || (opts.compute_stretch && !find);
  const bool custom = static_cast<bool>(opts.promise);
  // Packing goes through raw pointers into worker-persistent arrays sized to
  // the batch (capacity sticks across batches, so the resizes are free in
  // steady state) — the admission loop runs per scenario and push_back's
  // capacity checks are measurable there.
  const auto un = static_cast<size_t>(n);
  if (scratch.src.size() < un) {
    scratch.src.resize(un);
    scratch.dst.resize(un);
    scratch.ord.resize(un);
  }
  if (per_packet && scratch.target.size() < un) scratch.target.resize(un);
  if (find && scratch.pos.size() < un) scratch.pos.resize(un);
  scratch.fsets.clear();
  VertexId* const sp = scratch.src.data();
  VertexId* const dp = scratch.dst.data();
  int32_t* const op = scratch.ord.data();
  int32_t* const pp = scratch.pos.data();
  SweepStats** const tp = scratch.target.data();
  int admitted = 0;
  int first = n;  // first violating position so far (kFirstViolation)

  for (int begin = 0; begin < n;) {
    const int grp = batch.group_of(begin);
    int end = begin + 1;
    while (end < n && batch.group_of(end) == grp) ++end;
    const IdSet& failures = batch.group_failures(grp);
    const int fcount = failures.count();
    const int span = end - begin;

    if (custom) scratch.promise_scratch.failures = failures;  // reuses its storage
    const auto custom_holds = [&](VertexId s, VertexId t) {
      scratch.promise_scratch.source = s;
      scratch.promise_scratch.destination = t;
      return opts.promise(g, scratch.promise_scratch);
    };
    bool inc_ready = false;
    const auto connected_holds = [&](VertexId s, VertexId t) {
      if (s == t) return true;
      if (opts.oracle != nullptr) return opts.oracle->connected(s, t, failures);
      if (span == 1) return connected_fast(ctx, failures, s, t, ws);
      if (!inc_ready) {
        if (scratch.inc == nullptr) {
          scratch.inc = std::make_unique<IncrementalConnectivity>(g);
        }
        scratch.inc->move_to(failures);
        inc_ready = true;
      }
      return scratch.inc->connected(s, t);
    };

    // Ordinals are per admitting group and dense (assigned on the group's
    // first admitted packet), which is exactly route_groups_fast's contract.
    const int group_first = admitted;
    int32_t ord = -1;
    int toured = 0;
    for (int i = begin; i < end; ++i) {
      const VertexId s = batch.source(i);
      const VertexId t = batch.destination(i);
      // Touring holds unconditionally (§VII) unless a custom promise
      // narrows it.
      const bool held = custom ? custom_holds(s, t) : t == kNoVertex || connected_holds(s, t);
      if (!held) {
        if (collect_per_pair) {
          SweepStats& st = local_pairs[pair_key(s, t)];
          ++st.total;
          ++st.promise_broken;
        }
        continue;
      }
      if (t == kNoVertex) {
        // Rare enough in a routing-heavy stream that its tallies stay per
        // scenario — except `total`, which the aggregate path adds
        // group-wide below.
        SweepStats& st = collect_per_pair ? local_pairs[pair_key(s, t)] : local;
        if (collect_per_pair) ++st.total;
        st.failures_seen += fcount;
        const FastTourResult r = tour_packet_fast(ctx, pattern, failures, s, ws);
        st.tally_tour(r.success, r.dropped, r.steps_walked);
        if (find && !r.success) first = std::min(first, i);
        ++toured;
        continue;
      }
      if (ord < 0) {
        scratch.fsets.push_back(&failures);
        ord = static_cast<int32_t>(scratch.fsets.size()) - 1;
      }
      sp[admitted] = s;
      dp[admitted] = t;
      op[admitted] = ord;
      if (find) pp[admitted] = i;
      if (per_packet) {
        // Pointers into local_pairs stay valid across later insertions (the
        // map is node-based), so admitted packets' rows resolve up front.
        SweepStats& st = collect_per_pair ? local_pairs[pair_key(s, t)] : local;
        if (collect_per_pair) {
          ++st.total;
          st.failures_seen += fcount;
        }
        tp[admitted] = &st;
      }
      ++admitted;
    }
    if (!collect_per_pair) {
      // Aggregate mode folds the group's per-scenario counters in bulk: the
      // per-pair identities (total = sum of rows, etc.) don't apply here, so
      // one add per group replaces one per scenario.
      const int group_admitted = admitted - group_first;
      local.total += span;
      local.promise_broken += span - toured - group_admitted;
      local.failures_seen += static_cast<int64_t>(fcount) * group_admitted;
    }
    begin = end;
  }
  FastRouteResult* results = nullptr;
  if (per_packet || find) {
    scratch.results.resize(static_cast<size_t>(admitted));
    results = scratch.results.data();
  }
  const GroupRouteTally tally =
      route_groups_fast(ctx, pattern, scratch.fsets.data(), op, sp, dp, admitted, ws, results);
  if (find) {
    // Admitted packets are in stream order: the first undelivered one is
    // the earliest routing violation.
    for (int k = 0; k < admitted && pp[k] < first; ++k) {
      if (results[k].outcome != RoutingOutcome::kDelivered) first = pp[k];
    }
    return first < n ? first : -1;
  }
  if (!per_packet) {
    // Aggregate mode: fold the vectorized popcount tallies straight in.
    local.delivered += tally.delivered;
    local.looped += tally.looped;
    local.dropped += tally.dropped;
    local.invalid += tally.invalid;
    local.hops_delivered += tally.hops_delivered;
    return -1;
  }
  for (int k = 0; k < admitted; ++k) {
    SweepStats& st = *tp[k];
    const FastRouteResult& r = results[k];
    st.tally_route(r.outcome, r.hops);
    if (r.outcome == RoutingOutcome::kDelivered && opts.compute_stretch) {
      // BFS only on delivery: undelivered and promise-broken scenarios never
      // need the distance.
      const auto dist = distance(g, sp[k], dp[k], *scratch.fsets[static_cast<size_t>(op[k])]);
      if (dist.has_value() && *dist >= 1) st.tally_stretch(r.hops, *dist);
    }
  }
  return -1;
}

/// Worker count: the requested number (0 = hardware concurrency), capped at
/// one worker per batch when the source knows its size — spawning 64
/// threads for a 3-batch stratum probe would cost more than the sweep.
int resolve_threads(int requested, const ScenarioSource& source, int batch_size) {
  int threads = requested;
  if (threads <= 0) {
    threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  const int64_t hint = source.total_hint();
  if (hint >= 0) {
    const int64_t batches = (hint + batch_size - 1) / batch_size;
    threads = static_cast<int>(std::min<int64_t>(threads, std::max<int64_t>(1, batches)));
  }
  return threads;
}

void run_on_pool(int num_threads, const std::function<void()>& worker) {
  if (num_threads == 1) {
    worker();
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
}

}  // namespace

/// One worker's reusable scratch, pooled on the engine so it survives run()
/// boundaries. What persists usefully is the RoutingWorkspace: its packed
/// decision cache stays warm across repeated sweeps of the same (graph,
/// pattern) — begin_session compares uids and only flushes on a change. The
/// batch scratch also persists its storage, but its graph-pointing
/// union-find is dropped at checkout; see checkout_slot.
struct SweepEngine::WorkerSlot {
  RoutingWorkspace ws;
  BatchScratch scratch;
  std::unordered_map<uint64_t, SweepStats> local_pairs;
  ScenarioBatch batch;
};

SweepEngine::SweepEngine(SweepOptions opts) : opts_(std::move(opts)) {}

SweepEngine::~SweepEngine() = default;

std::unique_ptr<SweepEngine::WorkerSlot> SweepEngine::checkout_slot() const {
  std::unique_ptr<WorkerSlot> slot;
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      slot = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  if (slot == nullptr) slot = std::make_unique<WorkerSlot>();
  // The promise union-find holds a pointer to the graph it was built from,
  // which this run's graph need not outlive-match even when the uids agree
  // (a structurally identical copy shares the uid but not the address).
  // Dropping it is cheap — it rebuilds lazily, at most once per run.
  // Everything else in the slot is either self-revalidating (the decision
  // cache, via uids in begin_session) or plain reusable storage.
  slot->scratch.inc.reset();
  slot->local_pairs.clear();
  return slot;
}

void SweepEngine::checkin_slot(std::unique_ptr<WorkerSlot> slot) const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(slot));
}

SweepStats SweepEngine::run(const Graph& g, const ForwardingPattern& pattern,
                            ScenarioSource& source) const {
  return run_impl(g, pattern, source, /*collect_per_pair=*/false).totals;
}

SweepReport SweepEngine::run_report(const Graph& g, const ForwardingPattern& pattern,
                                    ScenarioSource& source) const {
  return run_impl(g, pattern, source, /*collect_per_pair=*/true);
}

SweepReport SweepEngine::run_impl(const Graph& g, const ForwardingPattern& pattern,
                                  ScenarioSource& source, bool collect_per_pair) const {
  const int batch_size = std::max(1, opts_.batch_size);
  const int num_threads = resolve_threads(opts_.num_threads, source, batch_size);
  const BatchMode mode = collect_per_pair ? BatchMode::kPerPair : BatchMode::kTotals;

  const int64_t oracle_hits_before = opts_.oracle != nullptr ? opts_.oracle->hits() : 0;
  const int64_t oracle_misses_before = opts_.oracle != nullptr ? opts_.oracle->misses() : 0;
  const int64_t oracle_evictions_before = opts_.oracle != nullptr ? opts_.oracle->evictions() : 0;

  // One immutable context per run (per graph), one workspace per worker:
  // steady-state scenarios allocate nothing.
  const SimContext ctx(g);

  SweepReport report;
  std::unordered_map<uint64_t, SweepStats> global_pairs;
  std::mutex source_mutex;
  std::mutex stats_mutex;

  auto worker = [&]() {
    std::unique_ptr<WorkerSlot> slot_owner = checkout_slot();
    WorkerSlot& slot = *slot_owner;
    SweepStats local;
    for (;;) {
      int n = 0;
      {
        const std::lock_guard<std::mutex> lock(source_mutex);
        n = source.next_batch(batch_size, slot.batch);
      }
      if (n == 0) break;
      (void)process_batch(ctx, pattern, slot.batch, n, opts_, mode, local, slot.local_pairs,
                          slot.ws, slot.scratch);
    }
    {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      if (collect_per_pair) {
        // Totals are the merge of the pair rows, so the documented identity
        // totals == sum(per_pair) holds by construction.
        for (auto& [key, stats] : slot.local_pairs) {
          report.totals.merge(stats);
          global_pairs[key].merge(stats);
        }
      } else {
        report.totals.merge(local);
      }
    }
    checkin_slot(std::move(slot_owner));
  };

  run_on_pool(num_threads, worker);

  if (opts_.oracle != nullptr) {
    report.totals.oracle_hits = opts_.oracle->hits() - oracle_hits_before;
    report.totals.oracle_misses = opts_.oracle->misses() - oracle_misses_before;
    report.totals.oracle_evictions = opts_.oracle->evictions() - oracle_evictions_before;
  }

  if (collect_per_pair) {
    std::map<std::pair<VertexId, VertexId>, SweepStats> sorted;
    for (auto& [key, stats] : global_pairs) {
      const auto s = static_cast<VertexId>(static_cast<int32_t>(key >> 32));
      const auto t = static_cast<VertexId>(static_cast<int32_t>(key & 0xffffffffu));
      sorted.emplace(std::make_pair(s, t), stats);
    }
    report.per_pair.reserve(sorted.size());
    for (auto& [pair, stats] : sorted) {
      report.per_pair.push_back(PairStats{pair.first, pair.second, stats});
    }
  }
  return report;
}

std::optional<SweepFinding> SweepEngine::find_first_violation(const Graph& g,
                                                              const ForwardingPattern& pattern,
                                                              ScenarioSource& source) const {
  const int batch_size = std::max(1, opts_.batch_size);
  const int num_threads = resolve_threads(opts_.num_threads, source, batch_size);

  // Deterministic early exit. `produced` is the stream position of the next
  // unproduced scenario; `best` the smallest violating index found so far.
  // Workers keep pulling while produced < best, so every scenario earlier
  // than a candidate is still evaluated; a candidate only survives if no
  // earlier scenario violates. Scenarios at index >= best are skipped — they
  // cannot improve the minimum. The final `best` is therefore the global
  // minimum violating index, independent of thread count and timing.
  constexpr int64_t kNoViolation = std::numeric_limits<int64_t>::max();
  const SimContext ctx(g);
  std::atomic<int64_t> best{kNoViolation};
  std::optional<SweepFinding> finding;
  std::mutex source_mutex;
  std::mutex best_mutex;
  int64_t produced = 0;

  auto worker = [&]() {
    std::unique_ptr<WorkerSlot> slot_owner = checkout_slot();
    WorkerSlot& slot = *slot_owner;
    SweepStats unused;  // the search reads violations, not tallies
    for (;;) {
      int64_t start = 0;
      int n = 0;
      {
        const std::lock_guard<std::mutex> lock(source_mutex);
        const int64_t remaining = best.load(std::memory_order_acquire) - produced;
        if (remaining <= 0) break;
        const int want = static_cast<int>(std::min<int64_t>(batch_size, remaining));
        n = source.next_batch(want, slot.batch);
        if (n == 0) break;
        start = produced;
        produced += n;
      }
      // Another worker may have pinned an earlier violation since the batch
      // was cut: its tail cannot improve the minimum.
      n = static_cast<int>(std::min<int64_t>(n, best.load(std::memory_order_relaxed) - start));
      if (n <= 0) continue;
      const int first = process_batch(ctx, pattern, slot.batch, n, opts_,
                                      BatchMode::kFirstViolation, unused, slot.local_pairs,
                                      slot.ws, slot.scratch);
      if (first < 0) continue;
      const int64_t index = start + first;
      const std::lock_guard<std::mutex> lock(best_mutex);
      if (index < best.load(std::memory_order_relaxed)) {
        best.store(index, std::memory_order_release);
        // Re-simulate only the winning candidate with walk recording: the
        // simulation is deterministic, so the witness is identical, and the
        // batch loop stays on the zero-allocation path.
        SweepFinding f;
        f.index = index;
        f.scenario = slot.batch.scenario(first);
        if (f.scenario.destination == kNoVertex) {
          f.tour = tour_packet(ctx, pattern, f.scenario.failures, f.scenario.source, slot.ws);
        } else {
          f.routing = route_packet(ctx, pattern, f.scenario.failures, f.scenario.source,
                                   Header{f.scenario.source, f.scenario.destination}, slot.ws);
        }
        finding = std::move(f);
      }
    }
    checkin_slot(std::move(slot_owner));
  };

  run_on_pool(num_threads, worker);
  return finding;
}

std::optional<SweepFinding> SweepEngine::find_first_violation_sharded(
    const Graph& g, const ForwardingPattern& pattern, ScenarioSource& source,
    int shard_count) const {
  // Each shard preserves canonical order and the shards partition the
  // stream, so the canonical first violation is the shard-local first
  // violation whose global index is smallest. Shards run one after another
  // (each sweep is already parallel inside); a multi-process driver would
  // run them concurrently and resolve the same minimum.
  std::optional<SweepFinding> best;
  for (int i = 0; i < shard_count; ++i) {
    source.shard(i, shard_count);
    auto finding = find_first_violation(g, pattern, source);
    if (!finding.has_value()) continue;
    finding->index = source.global_index(finding->index);
    if (!best.has_value() || finding->index < best->index) best = std::move(finding);
  }
  source.shard(0, 1);
  return best;
}

}  // namespace pofl
