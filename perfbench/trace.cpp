// pofl_bench_trace: the benchmark's layer-timing tool.
//
// It calls each layer's public API directly and times the calls from here,
// so the program under test carries no spans of its own:
//
//   pofl_bench_trace setup <g.graphml> <p|exhaustive> <trials|k>
//       times the CLI sweep's set-up calls (load_graphml,
//       make_shortest_path_pattern, all_ordered_pairs, source construction)
//       kSetupReps times and prints their median.
//
//   pofl_bench_trace replay <g.graphml> <p|exhaustive> <trials|k> <seed>
//                           <oracle|no-oracle> <out.json> <cold_every>
//       replays one sweep through the layers the engine's single-thread
//       group path uses, in the same order: ScenarioSource::next_batch, the
//       promise check (both the ConnectivityOracle arm and the union-find
//       arm, checked against each other), route_groups_fast, the stretch
//       BFS, the per-pair tally and SweepReport::merge, and to_json /
//       report_from_json. The report it writes to <out.json> must equal the
//       bytes `pofl_cli sweep --json` (oracle) or the daemon (no-oracle)
//       produces for the same spec. Every <cold_every>-th batch is routed a
//       second time on a fresh RoutingWorkspace to show the decision cache
//       from outside.
//
//   pofl_bench_trace serve <requests.jsonl> <g.graphml>...
//       feeds request lines to SweepServer::handle_request in-process and
//       prints, per request, the handle time, whether it was a cache hit and
//       the response size.
//
// Every subcommand prints one JSON object per line on stdout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_oracle.hpp"
#include "graph/graphml.hpp"
#include "graph/incremental_connectivity.hpp"
#include "routing/simulator.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace {

using namespace pofl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

int fail(const std::string& message) {
  std::fprintf(stderr, "pofl_bench_trace: %s\n", message.c_str());
  return 1;
}

/// The sweep a CLI or daemon request describes: iid(p, trials, seed) or
/// exhaustive |F| <= k over all ordered pairs.
struct SweepSpec {
  bool exhaustive = false;
  double p = 0.0;
  int trials = 0;
  uint64_t seed = 1;
};

bool parse_spec(const char* mode, const char* count, SweepSpec& spec) {
  char* end = nullptr;
  spec.exhaustive = std::string(mode) == "exhaustive";
  if (!spec.exhaustive) {
    spec.p = std::strtod(mode, &end);
    if (*end != '\0' || spec.p < 0.0 || spec.p > 1.0) return false;
  }
  const long n = std::strtol(count, &end, 10);
  if (*end != '\0' || n <= 0 || n > 1'000'000) return false;
  spec.trials = static_cast<int>(n);
  return true;
}

std::unique_ptr<ScenarioSource> make_source(const Graph& g, const SweepSpec& spec,
                                            const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  if (spec.exhaustive) return std::make_unique<ExhaustiveFailureSource>(g, spec.trials, pairs);
  return std::make_unique<RandomFailureSource>(
      RandomFailureSource::iid(g, spec.p, spec.trials, spec.seed, pairs));
}

// ---- setup -----------------------------------------------------------------

// Set-up calls per `setup` invocation; the median of these is reported.
constexpr int kSetupReps = 100;

int cmd_setup(int argc, char** argv) {
  if (argc != 5) return fail("usage: setup <g.graphml> <p|exhaustive> <trials|k>");
  SweepSpec spec;
  if (!parse_spec(argv[3], argv[4], spec)) return fail("bad sweep spec");
  std::vector<double> samples;
  int64_t checksum = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto start = Clock::now();
    const auto net = load_graphml(argv[2]);
    if (!net.has_value()) return fail(std::string("cannot parse ") + argv[2]);
    const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, net->graph);
    const auto pairs = all_ordered_pairs(net->graph);
    const auto source = make_source(net->graph, spec, pairs);
    samples.push_back(seconds_since(start));
    checksum += source->total_hint() + static_cast<int64_t>(pattern != nullptr);
  }
  std::printf("{\"setup_s\":%.9g,\"reps\":%d,\"min_s\":%.9g,\"max_s\":%.9g,\"checksum\":%lld}\n",
              median(samples), kSetupReps, *std::min_element(samples.begin(), samples.end()),
              *std::max_element(samples.begin(), samples.end()),
              static_cast<long long>(checksum));
  return 0;
}

// ---- replay ----------------------------------------------------------------

/// The engine's single-scenario promise memo for oracle-free sweeps (lazy
/// early-exit BFS, switching to the rollback union-find while a failure set
/// repeats), rebuilt here from the public connectivity calls.
struct PromiseMemo {
  IdSet failures;
  bool have_failures = false;
  bool inc_synced = false;
  bool current_repeated = false;
  std::unique_ptr<IncrementalConnectivity> inc;
};

void memo_sync(const Graph& g, const IdSet& failures, PromiseMemo& memo) {
  if (memo.inc == nullptr) memo.inc = std::make_unique<IncrementalConnectivity>(g);
  memo.inc->move_to(failures);
  memo.inc_synced = true;
}

bool memo_connected(const SimContext& ctx, const IdSet& failures, VertexId s, VertexId t,
                    RoutingWorkspace& ws, PromiseMemo& memo) {
  if (memo.have_failures && memo.failures == failures) {
    memo.current_repeated = true;
    if (!memo.inc_synced) memo_sync(ctx.graph(), failures, memo);
    return memo.inc->connected(s, t);
  }
  const bool eager = memo.current_repeated;
  memo.failures = failures;
  memo.have_failures = true;
  memo.inc_synced = false;
  memo.current_repeated = false;
  if (eager) {
    memo_sync(ctx.graph(), failures, memo);
    return memo.inc->connected(s, t);
  }
  return connected_fast(ctx, failures, s, t, ws);
}

uint64_t pair_key(VertexId s, VertexId t) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(s)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(t));
}

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int cmd_replay(int argc, char** argv) {
  if (argc != 9) {
    return fail(
        "usage: replay <g.graphml> <p|exhaustive> <trials|k> <seed> <oracle|no-oracle> "
        "<out.json> <cold_every>");
  }
  const auto wall_start = Clock::now();
  SweepSpec spec;
  if (!parse_spec(argv[3], argv[4], spec)) return fail("bad sweep spec");
  spec.seed = std::strtoull(argv[5], nullptr, 10);
  const std::string arm = argv[6];
  if (arm != "oracle" && arm != "no-oracle") return fail("arm must be oracle or no-oracle");
  const bool use_oracle = arm == "oracle";
  const std::string out_path = argv[7];
  const int cold_every = std::max(1, std::atoi(argv[8]));

  const auto net = load_graphml(argv[2]);
  if (!net.has_value()) return fail(std::string("cannot parse ") + argv[2]);
  const Graph& g = net->graph;
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
  const auto pairs = all_ordered_pairs(g);
  const auto source = make_source(g, spec, pairs);

  ConnectivityOracle oracle(g);
  const SimContext ctx(g);
  RoutingWorkspace ws;
  PromiseMemo memo;
  IncrementalConnectivity inc(g);
  ScenarioBatch batch;
  constexpr int kBatch = 256;  // SweepOptions::batch_size default

  std::unordered_map<uint64_t, SweepStats> rows;
  std::vector<uint8_t> held_oracle;
  std::vector<uint8_t> held_uf;
  std::vector<VertexId> src;
  std::vector<VertexId> dst;
  std::vector<int32_t> ord;
  std::vector<const IdSet*> fsets;
  std::vector<SweepStats*> target;
  std::vector<FastRouteResult> results;
  std::vector<FastRouteResult> cold_results;
  std::vector<int> dist;
  std::vector<uint64_t> batch_keys;
  std::vector<uint64_t> stretch_keys;

  double source_s = 0.0, oracle_s = 0.0, uf_s = 0.0, route_s = 0.0, cold_s = 0.0;
  double stretch_s = 0.0, tally_s = 0.0, keys_s = 0.0;
  int64_t batches = 0, groups = 0, scenarios = 0, held = 0, packets = 0, chunks = 0;
  int64_t cold_packets = 0, bfs_runs = 0, promise_mismatches = 0, cold_mismatches = 0;

  for (;;) {
    auto t0 = Clock::now();
    const int n = source->next_batch(kBatch, batch);
    source_s += seconds_since(t0);
    if (n == 0) break;
    ++batches;
    groups += batch.num_groups();
    scenarios += n;
    const auto un = static_cast<size_t>(n);
    held_oracle.assign(un, 0);
    held_uf.assign(un, 0);
    for (int i = 0; i < n; ++i) {
      if (batch.destination(i) == kNoVertex) return fail("touring scenarios are not replayed");
    }

    // Promise arm 1: the connectivity oracle, asked once per scenario in
    // stream order exactly as the oracle-attached engine does.
    t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      const VertexId s = batch.source(i);
      const VertexId t = batch.destination(i);
      held_oracle[static_cast<size_t>(i)] = s == t || oracle.connected(s, t, batch.failures(i));
    }
    oracle_s += seconds_since(t0);

    // Promise arm 2: the oracle-free strategy — one rollback union-find
    // move per multi-scenario group, the lazy memo for singleton groups.
    t0 = Clock::now();
    for (int begin = 0; begin < n;) {
      const int grp = batch.group_of(begin);
      int end = begin + 1;
      while (end < n && batch.group_of(end) == grp) ++end;
      const IdSet& failures = batch.group_failures(grp);
      if (end - begin > 1) inc.move_to(failures);
      for (int i = begin; i < end; ++i) {
        const VertexId s = batch.source(i);
        const VertexId t = batch.destination(i);
        bool ok = true;
        if (s != t) {
          ok = end - begin == 1 ? memo_connected(ctx, failures, s, t, ws, memo)
                                : inc.connected(s, t);
        }
        held_uf[static_cast<size_t>(i)] = ok;
      }
      begin = end;
    }
    uf_s += seconds_since(t0);
    if (held_oracle != held_uf) ++promise_mismatches;

    // Admission and per-pair accounting (the tally layer's first half).
    t0 = Clock::now();
    if (src.size() < un) {
      src.resize(un);
      dst.resize(un);
      ord.resize(un);
      target.resize(un);
    }
    fsets.clear();
    int admitted = 0;
    for (int begin = 0; begin < n;) {
      const int grp = batch.group_of(begin);
      int end = begin + 1;
      while (end < n && batch.group_of(end) == grp) ++end;
      const IdSet& failures = batch.group_failures(grp);
      const int fcount = failures.count();
      int32_t group_ord = -1;
      for (int i = begin; i < end; ++i) {
        const VertexId s = batch.source(i);
        const VertexId t = batch.destination(i);
        SweepStats& st = rows[pair_key(s, t)];
        ++st.total;
        if (!held_oracle[static_cast<size_t>(i)]) {
          ++st.promise_broken;
          continue;
        }
        if (group_ord < 0) {
          fsets.push_back(&failures);
          group_ord = static_cast<int32_t>(fsets.size()) - 1;
        }
        st.failures_seen += fcount;
        src[static_cast<size_t>(admitted)] = s;
        dst[static_cast<size_t>(admitted)] = t;
        ord[static_cast<size_t>(admitted)] = group_ord;
        target[static_cast<size_t>(admitted)] = &st;
        ++admitted;
      }
      begin = end;
    }
    tally_s += seconds_since(t0);
    held += admitted;
    if (admitted == 0) continue;
    const auto ua = static_cast<size_t>(admitted);

    t0 = Clock::now();
    results.resize(ua);
    (void)route_groups_fast(ctx, *pattern, fsets.data(), ord.data(), src.data(), dst.data(),
                            admitted, ws, results.data());
    route_s += seconds_since(t0);
    packets += admitted;
    chunks += (admitted + 63) / 64;

    if (batches % cold_every == 0) {
      t0 = Clock::now();
      auto fresh = std::make_unique<RoutingWorkspace>();
      cold_results.resize(ua);
      (void)route_groups_fast(ctx, *pattern, fsets.data(), ord.data(), src.data(), dst.data(),
                              admitted, *fresh, cold_results.data());
      fresh.reset();
      cold_s += seconds_since(t0);
      cold_packets += admitted;
      for (size_t k = 0; k < ua; ++k) {
        if (cold_results[k].outcome != results[k].outcome ||
            cold_results[k].hops != results[k].hops) {
          ++cold_mismatches;
          break;
        }
      }
    }

    // Stretch: one BFS per delivered packet, as the engine does today.
    t0 = Clock::now();
    dist.assign(ua, 0);
    for (size_t k = 0; k < ua; ++k) {
      if (results[k].outcome != RoutingOutcome::kDelivered) continue;
      const auto d = distance(g, src[k], dst[k], *fsets[static_cast<size_t>(ord[k])]);
      dist[k] = d.has_value() ? *d : -1;
      ++bfs_runs;
    }
    stretch_s += seconds_since(t0);

    // Distinct (failure set, destination) keys among those BFS runs — the
    // work a shared stretch BFS would keep. Not part of any layer's time.
    t0 = Clock::now();
    batch_keys.clear();
    for (size_t k = 0; k < ua; ++k) {
      if (results[k].outcome != RoutingOutcome::kDelivered) continue;
      const uint64_t fh = fsets[static_cast<size_t>(ord[k])]->hash();
      batch_keys.push_back(mix64(fh ^ mix64(static_cast<uint64_t>(dst[k]))));
    }
    std::sort(batch_keys.begin(), batch_keys.end());
    batch_keys.erase(std::unique(batch_keys.begin(), batch_keys.end()), batch_keys.end());
    stretch_keys.insert(stretch_keys.end(), batch_keys.begin(), batch_keys.end());
    keys_s += seconds_since(t0);

    t0 = Clock::now();
    for (size_t k = 0; k < ua; ++k) {
      SweepStats& st = *target[k];
      st.tally_route(results[k].outcome, results[k].hops);
      if (results[k].outcome == RoutingOutcome::kDelivered && dist[k] >= 1) {
        st.tally_stretch(results[k].hops, dist[k]);
      }
    }
    tally_s += seconds_since(t0);
  }

  // The tally layer's second half: per-pair rows sorted and folded into the
  // report through SweepReport::merge.
  auto t0 = Clock::now();
  SweepReport folded;
  {
    std::map<std::pair<VertexId, VertexId>, SweepStats> sorted;
    for (const auto& [key, stats] : rows) {
      sorted.emplace(std::make_pair(static_cast<VertexId>(static_cast<int32_t>(key >> 32)),
                                    static_cast<VertexId>(static_cast<int32_t>(key))),
                     stats);
    }
    for (const auto& [pair, stats] : sorted) {
      folded.per_pair.push_back(PairStats{pair.first, pair.second, stats});
      folded.totals.merge(stats);
    }
  }
  SweepReport report;
  report.merge(folded);
  if (use_oracle) {
    report.totals.oracle_hits = oracle.hits();
    report.totals.oracle_misses = oracle.misses();
    report.totals.oracle_evictions = oracle.evictions();
  }
  tally_s += seconds_since(t0);

  const double layered_wall_s = seconds_since(wall_start);

  t0 = Clock::now();
  std::sort(stretch_keys.begin(), stretch_keys.end());
  const auto distinct_keys = static_cast<int64_t>(
      std::unique(stretch_keys.begin(), stretch_keys.end()) - stretch_keys.begin());
  keys_s += seconds_since(t0);

  // JSON layer: serialize and parse the report a few times; the parse must
  // round-trip to the same bytes.
  std::vector<double> write_samples;
  std::vector<double> parse_samples;
  std::string body;
  bool json_roundtrip = true;
  for (int r = 0; r < 3; ++r) {
    t0 = Clock::now();
    body = to_json(report);
    write_samples.push_back(seconds_since(t0));
    t0 = Clock::now();
    const auto parsed = report_from_json(body);
    parse_samples.push_back(seconds_since(t0));
    if (!parsed.has_value() || to_json(*parsed) != body) json_roundtrip = false;
  }
  if (!write_json_file(out_path, body)) return fail("cannot write " + out_path);

  const double shadow_s = use_oracle ? uf_s : oracle_s;
  const int64_t oracle_queries = oracle.hits() + oracle.misses();
  std::printf(
      "{\"scenarios\":%lld,\"batches\":%lld,\"groups_per_batch\":%.9g,\"source_busy_s\":%.9g,"
      "\"oracle_busy_s\":%.9g,\"uf_busy_s\":%.9g,\"held_ratio\":%.9g,\"oracle_hit_ratio\":%.9g,"
      "\"route_busy_s\":%.9g,\"ns_per_packet\":%.9g,\"cold_ns_per_packet\":%.9g,"
      "\"chunk_fill\":%.9g,\"stretch_busy_s\":%.9g,\"bfs_runs\":%lld,\"distinct_keys\":%lld,"
      "\"reuse_ratio\":%.9g,\"tally_busy_s\":%.9g,\"json_write_s\":%.9g,\"json_parse_s\":%.9g,"
      "\"json_bytes\":%zu,\"layered_wall_s\":%.9g,\"shadow_s\":%.9g,\"cold_s\":%.9g,"
      "\"keys_s\":%.9g,\"promise_mismatches\":%lld,\"cold_mismatches\":%lld,"
      "\"json_roundtrip\":%s}\n",
      static_cast<long long>(scenarios), static_cast<long long>(batches),
      batches > 0 ? static_cast<double>(groups) / static_cast<double>(batches) : 0.0, source_s,
      oracle_s, uf_s,
      scenarios > 0 ? static_cast<double>(held) / static_cast<double>(scenarios) : 0.0,
      oracle_queries > 0 ? static_cast<double>(oracle.hits()) / static_cast<double>(oracle_queries)
                         : 0.0,
      route_s, packets > 0 ? 1e9 * route_s / static_cast<double>(packets) : 0.0,
      cold_packets > 0 ? 1e9 * cold_s / static_cast<double>(cold_packets) : 0.0,
      chunks > 0 ? static_cast<double>(packets) / static_cast<double>(chunks) : 0.0, stretch_s,
      static_cast<long long>(bfs_runs), static_cast<long long>(distinct_keys),
      bfs_runs > 0 ? 1.0 - static_cast<double>(distinct_keys) / static_cast<double>(bfs_runs)
                   : 0.0,
      tally_s, median(write_samples), median(parse_samples), body.size() + 1, layered_wall_s,
      shadow_s, cold_s, keys_s, static_cast<long long>(promise_mismatches),
      static_cast<long long>(cold_mismatches), json_roundtrip ? "true" : "false");
  return 0;
}

// ---- serve -----------------------------------------------------------------

int cmd_serve(int argc, char** argv) {
  if (argc < 4) return fail("usage: serve <requests.jsonl> <g.graphml>...");
  SweepServer server;
  std::string error;
  for (int i = 3; i < argc; ++i) {
    if (!server.register_graphml(argv[i], error)) return fail(error);
  }
  std::ifstream in(argv[2]);
  if (!in) return fail(std::string("cannot read ") + argv[2]);
  static constexpr char kCachedPrefix[] = "{\"ok\":true,\"cached\":true";
  static constexpr char kOkPrefix[] = "{\"ok\":true";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto t0 = Clock::now();
    const std::string response = server.handle_request(line);
    const double ms = 1e3 * seconds_since(t0);
    std::printf("{\"ms\":%.9g,\"cached\":%s,\"ok\":%s,\"bytes\":%zu}\n", ms,
                response.rfind(kCachedPrefix, 0) == 0 ? "true" : "false",
                response.rfind(kOkPrefix, 0) == 0 ? "true" : "false", response.size() + 1);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return fail("usage: pofl_bench_trace setup|replay|serve ...");
  const std::string cmd = argv[1];
  try {
    if (cmd == "setup") return cmd_setup(argc, argv);
    if (cmd == "replay") return cmd_replay(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return fail("unknown subcommand '" + cmd + "'");
}
