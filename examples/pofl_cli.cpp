// Command-line driver for the library — the tool a network operator would
// actually run against their topology.
//
//   pofl_cli classify <file.graphml>          per-model resilience verdicts
//   pofl_cli destinations <file.graphml>      Corollary-5 destination list
//   pofl_cli attack <file.graphml> <s> <t>    find a defeating failure set
//                                             for the natural failover
//                                             pattern on this topology
//   pofl_cli export-zoo <directory>           write the synthetic zoo as
//                                             GraphML for external tools
//   pofl_cli sweep <file.graphml> <p> <trials> [--json <path>] [--per-pair]
//                  [--check <baseline.json>] [--threads <n>]
//                  [--shard i/N | --procs <N>]
//                                             parallel Monte Carlo sweep of
//                                             the natural failover pattern
//                                             over all pairs under i.i.d.
//                                             link failures; --json writes
//                                             SweepStats (+ per-pair rows)
//                                             machine-readably; --check
//                                             replays the sweep and diffs
//                                             its JSON bit-for-bit against a
//                                             previously recorded --json
//                                             file (exit 1 on divergence) —
//                                             the golden-baseline workflow
//                                             from the command line
//   pofl_cli sweep <file.graphml> exhaustive <k> [same flags]
//                                             exhaustive sweep instead: every
//                                             failure set with |F| <= k
//                                             (multi-word Gosper enumeration,
//                                             graphs up to 512 links) crossed
//                                             with all pairs; shards and
//                                             merges exactly like the Monte
//                                             Carlo mode
//   pofl_cli merge <report.json...> [--json <path>] [--check <baseline.json>]
//                                             fold shard reports into one
//
// Distributed sweeps: `--shard i/N` runs the i-th of N deterministic shards
// of the scenario stream (for multi-host fan-out — ship the N shard JSONs
// back and `merge` them), and `--procs N` is the single-host version: it
// launches N shard workers under a ShardSupervisor (src/orchestrate),
// merges their JSON, and reports the merged result. Sharded runs skip the
// connectivity-oracle cache (its hit/miss accounting depends on the
// partition; the rates and result counters do not), so any shard/proc/
// thread split of one sweep serializes to the same bytes — but a plain
// unsharded `sweep --json` records nonzero oracle counters and is
// therefore NOT byte-comparable to a sharded/merged run. Record baselines
// for distributed checking with --procs or --shard (the checked-in
// tests/baselines/cli_zoo_procs.json is a --procs recording).
//
// Fault tolerance (--procs only): the supervisor monitors every worker
// with a per-shard wall clock (`--shard-timeout <sec>`, SIGTERM then
// SIGKILL), treats crashes / non-zero exits / truncated-or-corrupt shard
// JSON as failed attempts, and retries with capped exponential backoff
// (`--retries <n>`, `--backoff-ms <n>`). On retry exhaustion the run
// fails — or, with `--allow-partial`, emits a degraded merge carrying an
// "incomplete":{shard_count,missing_shards,attempts} provenance block.
// `--checkpoint-dir <dir>` keeps the per-shard JSONs: because shard output
// is bit-exact and content-complete, a completed shard file doubles as a
// checkpoint, and a rerun with the same directory skips every shard whose
// valid output already exists (crash/resume for long sweeps). The
// POFL_FAULT env hook (src/orchestrate/fault_inject.hpp) injects
// deterministic worker faults so every one of these paths is testable.

#include <fcntl.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/exhaustive.hpp"
#include "attacks/pattern_corpus.hpp"
#include "classify/classifier.hpp"
#include "classify/zoo.hpp"
#include "graph/bitmask.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_oracle.hpp"
#include "graph/graphml.hpp"
#include "orchestrate/fault_inject.hpp"
#include "orchestrate/posix_io.hpp"
#include "orchestrate/supervisor.hpp"
#include "resilience/dest_via_touring.hpp"
#include "routing/verifier.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace {

using namespace pofl;

int usage() {
  std::fprintf(stderr,
               "usage: pofl_cli classify <file.graphml>\n"
               "       pofl_cli destinations <file.graphml>\n"
               "       pofl_cli attack <file.graphml> <s> <t>\n"
               "       pofl_cli min-defeat <file.graphml> <pattern> <s,t> [--budget <k>] "
               "[--enumerate] [--json <path>] [--check <baseline.json>]\n"
               "                (pattern: shortest-path | id-cyclic | bounce-shy | "
               "random-cyclic:<seed> | random-stateless:<seed>)\n"
               "       pofl_cli export-zoo <directory>\n"
               "       pofl_cli sweep <file.graphml> <p> <trials> [--json <path>] "
               "[--per-pair] [--check <baseline.json>] [--threads <n>] "
               "[--shard i/N | --procs <N>]\n"
               "                [--retries <n>] [--backoff-ms <n>] [--shard-timeout <sec>] "
               "[--allow-partial] [--checkpoint-dir <dir>]   (with --procs)\n"
               "       pofl_cli sweep <file.graphml> exhaustive <k> [same flags]\n"
               "       pofl_cli merge <report.json...> [--json <path>] "
               "[--check <baseline.json>]\n"
               "       pofl_cli serve <file.graphml...> [--port <n>] [--bind <addr>] "
               "[--cache <n>]\n"
               "                resident sweep daemon: line-delimited JSON over TCP, "
               "content-addressed result cache\n"
               "       pofl_cli submit <host:port> <request-json> [--json <path>] "
               "[--check <baseline.json>]\n"
               "                send one request to a serve daemon; --json/--check apply "
               "to the extracted report bytes\n");
  return 2;
}

std::optional<NamedGraph> load(const std::string& path) {
  auto g = load_graphml(path);
  if (!g.has_value()) std::fprintf(stderr, "error: cannot parse %s\n", path.c_str());
  return g;
}

/// Strict numeric parsing: the whole token must be the number. atoi-style
/// silent truncation ("--threads 2x" -> 2, "abc" -> 0) is how a typo turns
/// into a wrong sweep — and so is ERANGE, which strtol signals only through
/// errno while clamping to LONG_MAX ("--procs 99999999999999999999").
bool parse_long(const char* s, long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

int cmd_classify(const std::string& path) {
  const auto net = load(path);
  if (!net.has_value()) return 1;
  const Classification c = classify_topology(net->graph);
  std::printf("network:             %s\n", net->name.c_str());
  std::printf("nodes / links:       %d / %d\n", net->graph.num_vertices(),
              net->graph.num_edges());
  std::printf("connected:           %s\n", c.connected ? "yes" : "no");
  std::printf("planar:              %s\n", c.planar ? "yes" : "no");
  std::printf("outerplanar:         %s\n", c.outerplanar ? "yes" : "no");
  std::printf("touring:             %s\n", to_string(c.touring));
  std::printf("destination-based:   %s\n", to_string(c.destination));
  std::printf("source-destination:  %s\n", to_string(c.source_destination));
  std::printf("Corollary-5 dests:   %d of %d\n", c.cor5_destinations,
              net->graph.num_vertices());
  return 0;
}

int cmd_destinations(const std::string& path) {
  const auto net = load(path);
  if (!net.has_value()) return 1;
  const auto dests = corollary5_destinations(net->graph);
  std::printf("%zu destinations admit perfectly resilient destination-based "
              "routing via Corollary 5:\n",
              dests.size());
  for (VertexId t : dests) std::printf("  %d\n", t);
  return 0;
}

int cmd_attack(const std::string& path, VertexId s, VertexId t) {
  const auto net = load(path);
  if (!net.has_value()) return 1;
  const Graph& g = net->graph;
  if (s < 0 || t < 0 || s >= g.num_vertices() || t >= g.num_vertices() || s == t) {
    std::fprintf(stderr, "error: invalid s/t\n");
    return 1;
  }
  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
  std::printf("attacking the shortest-path failover pattern on %s, %d -> %d...\n",
              net->name.c_str(), s, t);
  if (g.num_edges() <= 22) {
    const auto defeat = find_minimum_defeat(g, *pattern, s, t, g.num_edges());
    if (!defeat.defeated()) {
      std::printf("no defeating failure set exists for this pair: the pattern is "
                  "perfectly resilient here.\n");
      return 0;
    }
    std::printf("minimum defeating failure set (%d links):\n", defeat.failures.count());
    for (int e : defeat.failures.to_vector()) {
      std::printf("  (%d,%d)\n", g.edge(e).u, g.edge(e).v);
    }
    std::printf("packet outcome: %s; walk:", to_string(defeat.routing.outcome));
    for (VertexId v : defeat.routing.walk) std::printf(" %d", v);
    std::printf("\n");
    return 0;
  }
  // Large topology: sampled search.
  VerifyOptions opts;
  opts.max_exhaustive_edges = 0;
  opts.samples = 50000;
  const auto violation = find_resilience_violation_for_pair(g, *pattern, s, t, opts);
  if (!violation.has_value()) {
    std::printf("no violation found in 50k sampled failure sets (not a proof).\n");
    return 0;
  }
  std::printf("defeating failure set with %d links found by sampling; outcome: %s\n",
              violation->failures.count(), to_string(violation->routing.outcome));
  return 0;
}

// ---- min-defeat ------------------------------------------------------------

int emit_and_check(const std::string& serialized, const std::string& json_path,
                   const std::string& check_path);  // defined with the sweep machinery below

struct MinDefeatConfig {
  std::string graph_path;
  std::string pattern_spec;
  VertexId source = kNoVertex;
  VertexId destination = kNoVertex;
  int budget = -1;  // -1 = full edge budget of the loaded graph
  bool enumerate = false;
  std::string json_path;
  std::string check_path;
};

int cmd_min_defeat(const MinDefeatConfig& cfg) {
  const auto net = load(cfg.graph_path);
  if (!net.has_value()) return 1;
  const Graph& g = net->graph;
  if (cfg.source < 0 || cfg.destination < 0 || cfg.source >= g.num_vertices() ||
      cfg.destination >= g.num_vertices() || cfg.source == cfg.destination) {
    std::fprintf(stderr, "error: invalid pair %d,%d for a %d-vertex graph\n", cfg.source,
                 cfg.destination, g.num_vertices());
    return 1;
  }
  if (g.num_edges() > EdgeMask::kMaxBits) {
    std::fprintf(stderr, "error: %s has %d links, above the exact-search limit of %d\n",
                 net->name.c_str(), g.num_edges(), EdgeMask::kMaxBits);
    return 1;
  }
  bool bad_seed = false;
  const auto pattern = make_named_pattern(cfg.pattern_spec, g, &bad_seed);
  if (pattern == nullptr) {
    if (bad_seed) {
      std::fprintf(stderr, "error: pattern seed must be a non-negative integer in '%s'\n",
                   cfg.pattern_spec.c_str());
    } else {
      std::fprintf(stderr, "error: unknown pattern '%s' (want %s)\n", cfg.pattern_spec.c_str(),
                   kNamedPatterns);
    }
    return 2;
  }

  SearchOptions opts;
  if (cfg.enumerate) opts.strategy = SearchStrategy::kEnumerate;
  const int budget = cfg.budget >= 0 ? cfg.budget : g.num_edges();
  const auto result = min_defeat_search(g, *pattern, cfg.source, cfg.destination, budget, opts);

  std::printf("min-defeat on %s, pattern %s, %d -> %d (budget %d, %s):\n", net->name.c_str(),
              cfg.pattern_spec.c_str(), cfg.source, cfg.destination, budget,
              result.telemetry.strategy.c_str());
  switch (result.status) {
    case MinDefeatStatus::kDefeated: {
      std::printf("  minimum defeating failure set: %d links\n", result.failures.count());
      for (int e : result.failures.to_vector()) {
        std::printf("    link %d = (%d,%d)\n", e, g.edge(e).u, g.edge(e).v);
      }
      std::printf("  packet outcome: %s after %d hops\n", to_string(result.routing.outcome),
                  result.routing.hops);
      break;
    }
    case MinDefeatStatus::kPerfectlyResilient:
      std::printf("  no defeating failure set exists: the pair is perfectly resilient.\n");
      break;
    case MinDefeatStatus::kNoDefeatWithinBudget:
      std::printf("  no defeating failure set with at most %d links (larger ones may exist).\n",
                  budget);
      break;
  }
  std::printf("  search: %lld expanded, %lld leaves verified, %lld bound prunes, min cut %d\n",
              static_cast<long long>(result.telemetry.nodes_expanded),
              static_cast<long long>(result.telemetry.leaves_verified),
              static_cast<long long>(result.telemetry.pruned_bound),
              result.telemetry.root_min_cut);

  JsonWriter w;
  w.begin_object();
  w.key("min_defeat");
  w.begin_object();
  w.key("graph");
  w.value(net->name);
  w.key("pattern");
  w.value(cfg.pattern_spec);
  w.key("result");
  append_json(w, result, g);
  w.end_object();
  w.end_object();
  return emit_and_check(w.str(), cfg.json_path, cfg.check_path);
}

// ---- sweep -----------------------------------------------------------------

struct SweepConfig {
  std::string graph_path;
  const char* p_arg = nullptr;       // original spellings, passed through to
  const char* trials_arg = nullptr;  // shard workers verbatim
  bool exhaustive = false;  // p_arg == "exhaustive": trials is max |F|
  double p = 0.0;
  int trials = 0;
  std::string json_path;
  std::string check_path;
  bool per_pair = false;
  int num_threads = 0;  // 0 = unset
  bool threads_set = false;
  int shard_index = 0;
  int shard_count = 1;
  bool shard_set = false;  // explicit --shard: a shard-worker run, even 0/1
  int procs = 0;           // 0 = no multi-process driver
  // Supervision knobs (meaningful with --procs only; rejected otherwise).
  int retries = 2;             // extra attempts per failed shard
  int backoff_ms = 200;        // first-retry delay, doubling up to the cap
  double shard_timeout = 0.0;  // per-attempt wall clock in seconds; 0 = off
  bool allow_partial = false;  // degraded merge instead of failure
  std::string checkpoint_dir;  // persistent shard-output dir for resume
  // Multi-host fan-out (with --procs): round-robin the shard workers over
  // these transports (src/serve/transport) instead of plain local fork/exec.
  std::vector<HostSpec> hosts;
  std::string ssh_cmd = "ssh";    // --ssh-cmd: the transport binary
  std::string remote_exe;         // --remote-exe: pofl_cli path on ssh hosts

  /// Shard workers under a transport stream their JSON to stdout.
  [[nodiscard]] bool stream_stdout() const { return json_path == "-"; }
};

/// Serializes the report the way this run records it: shard runs carry
/// their provenance marker, full runs (and merged results) are plain.
std::string serialize_report(const SweepReport& report, const SweepConfig& cfg) {
  if (cfg.shard_set) return to_json_shard(report, cfg.shard_index, cfg.shard_count);
  return to_json(report);
}

void print_report(const SweepReport& report, bool per_pair) {
  const SweepStats& stats = report.totals;
  std::printf("promise held:     %lld (%.2f%%)\n",
              static_cast<long long>(stats.promise_held()),
              stats.total > 0 ? 100.0 * stats.promise_held() / stats.total : 0.0);
  std::printf("delivery rate:    %.4f\n", stats.delivery_rate());
  std::printf("loop rate:        %.4f\n", stats.loop_rate());
  std::printf("drop rate:        %.4f\n", stats.drop_rate());
  std::printf("mean |F|:         %.2f\n", stats.mean_failures());
  std::printf("mean hops:        %.2f\n", stats.mean_hops());
  std::printf("mean stretch:     %.3f (max %.3f over %lld deliveries)\n",
              stats.mean_stretch(), stats.max_stretch,
              static_cast<long long>(stats.stretch_samples));
  if (stats.oracle_hits + stats.oracle_misses > 0) {
    std::printf("oracle:           %lld BFS computed, %lld reused from cache\n",
                static_cast<long long>(stats.oracle_misses),
                static_cast<long long>(stats.oracle_hits));
  }
  if (per_pair) {
    std::printf("%6s %6s %10s %10s %10s\n", "src", "dst", "scenarios", "held", "delivery");
    for (const PairStats& row : report.per_pair) {
      std::printf("%6d %6d %10lld %10lld %10.4f\n", row.source, row.destination,
                  static_cast<long long>(row.stats.total),
                  static_cast<long long>(row.stats.promise_held()),
                  row.stats.delivery_rate());
    }
  }
}

/// --json / --check tail shared by the local sweep, the --procs driver and
/// the merge command. `serialized` must be the exact bytes --json records.
int emit_and_check(const std::string& serialized, const std::string& json_path,
                   const std::string& check_path) {
  if (!json_path.empty() && !write_json_file(json_path, serialized)) return 1;
  if (!check_path.empty()) {
    // Golden replay: the sweep is deterministic (fixed seed, portable
    // fast-rand draws, exact integer/fixed-point counters), so the
    // serialized report must reproduce a previously recorded --json file
    // bit for bit.
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read baseline %s\n", check_path.c_str());
      return 1;
    }
    std::string golden((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (golden != serialized + "\n") {
      std::fprintf(stderr,
                   "error: sweep diverged from baseline %s (re-record it with --json if the "
                   "change is intentional)\n",
                   check_path.c_str());
      return 1;
    }
    std::printf("baseline check:   OK (%s reproduced bit-for-bit)\n", check_path.c_str());
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Launches one shard worker per shard under a ShardSupervisor and merges
/// their JSON: the single-host face of the distributed shard/merge
/// workflow, now with timeouts, retry/backoff, checkpoint/resume and an
/// optional degraded partial merge. Children write their partial reports
/// into `--checkpoint-dir` (kept, resumable) or a temp directory (removed)
/// with stdout silenced; the supervisor monitors, retries and reaps; the
/// parent parses, merges and reports as if it had run unsharded.
int run_procs(const SweepConfig& cfg) {
  char exe_path[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe_path, sizeof(exe_path) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "error: cannot resolve /proc/self/exe for --procs workers\n");
    return 1;
  }
  exe_path[exe_len] = '\0';

  // Where the shard outputs live. A checkpoint dir persists across runs —
  // guard it with a meta record so a resume with different sweep
  // parameters errors out instead of silently merging stale shard files
  // from some other sweep.
  const bool keep_dir = !cfg.checkpoint_dir.empty();
  std::string dir;
  if (keep_dir) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.checkpoint_dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create checkpoint dir %s\n",
                   cfg.checkpoint_dir.c_str());
      return 1;
    }
    dir = cfg.checkpoint_dir;
    const std::string meta_path = dir + "/checkpoint.meta";
    const std::string meta = std::string("graph=") + cfg.graph_path + " p=" + cfg.p_arg +
                             " trials=" + cfg.trials_arg +
                             " procs=" + std::to_string(cfg.procs) + "\n";
    if (std::filesystem::exists(meta_path)) {
      if (read_file(meta_path) != meta) {
        std::fprintf(stderr,
                     "error: checkpoint dir %s was recorded for a different sweep "
                     "(see %s); use a fresh directory\n",
                     dir.c_str(), meta_path.c_str());
        return 1;
      }
    } else if (!write_json_file(meta_path, meta.substr(0, meta.size() - 1))) {
      return 1;
    }
  } else {
    std::string tmpl = (std::filesystem::temp_directory_path() / "pofl_sweep_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "error: cannot create temp directory for shard reports\n");
      return 1;
    }
    dir = tmpl;
  }

  // Shard files are named by index *and* shard count: a resume with a
  // different --procs N must not pick up slices of another partition.
  std::vector<std::string> shard_files;
  for (int i = 0; i < cfg.procs; ++i) {
    shard_files.push_back(dir + "/shard_" + std::to_string(i) + "_of_" +
                          std::to_string(cfg.procs) + ".json");
  }

  // Two spawn shapes behind one supervisor contract. With --hosts, workers
  // run `--json -` and stream their shard JSON back over stdout, which the
  // transport redirects into the local shard file — identical plumbing for
  // local and ssh workers, so validate/retry/checkpoint/merge below never
  // know which transport ran. Without --hosts, the original local fork/exec
  // writes the shard file directly.
  const auto spawn = [&](int shard, int attempt) -> pid_t {
    const std::string shard_spec = std::to_string(shard) + "/" + std::to_string(cfg.procs);
    const std::string threads = std::to_string(cfg.threads_set ? cfg.num_threads : 1);
    const std::string attempt_str = std::to_string(attempt);
    if (!cfg.hosts.empty()) {
      TransportOptions transport;
      transport.hosts = cfg.hosts;
      transport.ssh_command = cfg.ssh_cmd;
      transport.remote_exe = cfg.remote_exe;
      const std::vector<std::string> worker_args = {
          "sweep",  cfg.graph_path, cfg.p_arg,   cfg.trials_arg, "--shard", shard_spec,
          "--json", "-",            "--threads", threads};
      return spawn_shard_worker(transport, shard, attempt, exe_path, worker_args,
                                shard_files[static_cast<size_t>(shard)]);
    }
    const char* argv[] = {exe_path, "sweep",  cfg.graph_path.c_str(),
                          cfg.p_arg, cfg.trials_arg, "--shard", shard_spec.c_str(),
                          "--json", shard_files[static_cast<size_t>(shard)].c_str(),
                          "--threads", threads.c_str(), nullptr};
    const pid_t pid = fork();
    if (pid == 0) {
      // Child: tell the fault hook which attempt this is (harmless when
      // POFL_FAULT is unset) and silence the per-shard human summary;
      // errors stay on stderr.
      setenv("POFL_FAULT_ATTEMPT", attempt_str.c_str(), 1);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        close(devnull);
      }
      execv(exe_path, const_cast<char* const*>(argv));
      std::fprintf(stderr, "error: exec failed for shard %d\n", shard);
      _exit(127);
    }
    return pid;  // -1 on fork failure: the supervisor retries with backoff
  };

  // Shard output is only believed when it parses and carries the right
  // provenance — run both after every clean exit and as the checkpoint
  // probe before the first spawn.
  const auto validate = [&](int shard, std::string& error) -> bool {
    const std::string& path = shard_files[static_cast<size_t>(shard)];
    if (!std::filesystem::exists(path)) {
      error = "no output file";
      return false;
    }
    const std::string text = read_file(path);
    ShardInfo info;
    std::string parse_error;
    const auto report = report_from_json(text, &info, &parse_error);
    if (!report.has_value()) {
      error = path + ": " + parse_error;
      return false;
    }
    if (!info.present || info.count != cfg.procs || info.index != shard) {
      error = path + ": wrong or missing shard provenance (expected " +
              std::to_string(shard) + "/" + std::to_string(cfg.procs) + ")";
      return false;
    }
    return true;
  };

  ShardSupervisorOptions sup_opts;
  sup_opts.retries = cfg.retries;
  sup_opts.backoff_ms = cfg.backoff_ms;
  sup_opts.shard_timeout_s = cfg.shard_timeout;
  sup_opts.verbose = true;
  ShardSupervisor supervisor(sup_opts);
  const SupervisorResult result = supervisor.run(cfg.procs, spawn, validate);

  const auto cleanup = [&] {
    if (!keep_dir) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  };

  // Merge whatever completed, in shard order (associative and commutative
  // bit for bit, but deterministic order keeps runs comparable).
  SweepReport merged;
  for (int i = 0; i < cfg.procs; ++i) {
    if (!result.shards[static_cast<size_t>(i)].completed) continue;
    ShardInfo info;
    std::string parse_error;
    const auto report =
        report_from_json(read_file(shard_files[static_cast<size_t>(i)]), &info, &parse_error);
    if (!report.has_value()) {
      // Validated moments ago; losing it now means the filesystem is
      // actively fighting us — not a retryable worker fault.
      std::fprintf(stderr, "error: shard report %s vanished or corrupted after validation: %s\n",
                   shard_files[static_cast<size_t>(i)].c_str(), parse_error.c_str());
      cleanup();
      return 1;
    }
    merged.merge(*report);
  }

  if (result.resumed_from_checkpoint() > 0) {
    std::printf("checkpoint:       resumed %d of %d shards from %s\n",
                result.resumed_from_checkpoint(), cfg.procs, dir.c_str());
  }

  const std::vector<int> missing = result.missing();
  if (missing.empty()) {
    std::printf("procs:            %d shard workers, merged bit-exactly (oracle-free: not "
                "byte-comparable to a plain unsharded --json recording)\n",
                cfg.procs);
    cleanup();
    print_report(merged, cfg.per_pair);
    return emit_and_check(to_json(merged), cfg.json_path, cfg.check_path);
  }

  for (const int shard : missing) {
    const ShardOutcome& outcome = result.shards[static_cast<size_t>(shard)];
    std::fprintf(stderr, "error: shard %d/%d failed after %d attempt(s): %s\n", shard,
                 cfg.procs, outcome.attempts, outcome.error.c_str());
  }
  if (!cfg.allow_partial) {
    if (keep_dir) {
      std::fprintf(stderr,
                   "note: completed shard outputs are checkpointed in %s — rerun the same "
                   "command to retry only the missing shards\n",
                   dir.c_str());
    }
    cleanup();
    return 1;
  }

  // Degraded partial merge: the explicit opt-in. The result carries an
  // "incomplete" provenance block naming the missing shards, so nothing
  // downstream can mistake it for a complete sweep.
  IncompleteInfo incomplete;
  incomplete.present = true;
  incomplete.shard_count = cfg.procs;
  incomplete.missing_shards = missing;
  for (const int shard : missing) {
    incomplete.attempts.push_back(result.shards[static_cast<size_t>(shard)].attempts);
  }
  std::printf("partial:          merged %d of %d shards (%zu missing) — incomplete result\n",
              cfg.procs - static_cast<int>(missing.size()), cfg.procs, missing.size());
  cleanup();
  print_report(merged, cfg.per_pair);
  return emit_and_check(to_json_partial(merged, incomplete), cfg.json_path, cfg.check_path);
}

int cmd_sweep(const SweepConfig& cfg) {
  const auto net = load(cfg.graph_path);
  if (!net.has_value()) return 1;
  const Graph& g = net->graph;
  if (!cfg.exhaustive && (cfg.p < 0.0 || cfg.p > 1.0 || cfg.trials <= 0)) {
    std::fprintf(stderr, "error: need 0 <= p <= 1 and trials > 0\n");
    return 1;
  }

  const auto pattern = make_shortest_path_pattern(RoutingModel::kSourceDestination, g);
  const auto pairs = all_ordered_pairs(g);

  // `--json -` workers own stdout for their report stream: every human line
  // is suppressed (errors keep stderr), and a broken pipe on the far end
  // must surface as a failed write, not a SIGPIPE kill.
  const bool stream = cfg.stream_stdout();
  if (!stream) {
    std::printf("network:          %s (n=%d m=%d)\n", net->name.c_str(), g.num_vertices(),
                g.num_edges());
    std::printf("pattern:          %s\n", pattern->name().c_str());
  }

  // Both modes produce a ScenarioSource; everything downstream (sharding,
  // merging, baselines) is mode-agnostic. The exhaustive constructor
  // enforces the EdgeMask capacity limit — surface its message as a normal
  // CLI error instead of an uncaught exception.
  std::unique_ptr<ScenarioSource> source;
  try {
    if (cfg.exhaustive) {
      source = std::make_unique<ExhaustiveFailureSource>(g, cfg.trials, pairs);
    } else {
      source = std::make_unique<RandomFailureSource>(
          RandomFailureSource::iid(g, cfg.p, cfg.trials, /*seed=*/1, pairs));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (cfg.procs > 0) {
    if (cfg.exhaustive) {
      std::printf("scenarios:        %lld (%zu pairs x |F|<=%d exhaustive)\n",
                  static_cast<long long>(source->total_hint()), pairs.size(), cfg.trials);
    } else {
      std::printf("scenarios:        %lld (%zu pairs x %d trials, p=%.3f)\n",
                  static_cast<long long>(pairs.size()) * cfg.trials, pairs.size(), cfg.trials,
                  cfg.p);
    }
    return run_procs(cfg);
  }

  // The POFL_FAULT test hook fires in shard workers only: a malformed spec
  // is a hard error (a typo'd injection must not silently no-op), and the
  // armed modes crash/hang/exit here — "mid-run", after argument and graph
  // validation, before any output exists.
  FaultInjector fault;
  if (cfg.shard_set) {
    bool fault_ok = true;
    fault = FaultInjector::from_env(cfg.shard_index, fault_ok);
    if (!fault_ok) {
      std::fprintf(stderr, "error: malformed POFL_FAULT spec '%s'\n", std::getenv("POFL_FAULT"));
      return 2;
    }
    fault.before_sweep();
  }

  source->shard(cfg.shard_index, cfg.shard_count);
  int64_t full_total = static_cast<int64_t>(pairs.size()) * cfg.trials;
  if (cfg.exhaustive) {
    ExhaustiveFailureSource full(g, cfg.trials, pairs);
    full_total = full.total_hint();
  }

  ConnectivityOracle oracle(g);
  SweepOptions opts;
  opts.compute_stretch = true;
  opts.num_threads = cfg.num_threads;
  // An explicit --shard run (even 0/1) is a shard worker: its report must
  // merge bit-exactly with its siblings', so it carries the provenance
  // marker and leaves the partition-dependent oracle accounting out.
  if (!cfg.shard_set) {
    // The shared connectivity cache only helps the full stream (duplicate
    // draws land in one process), and its hit/miss accounting depends on
    // the partition — a sharded run must serialize independently of it.
    opts.oracle = &oracle;
    // Recorded/replayed unsharded trajectories pin to one worker unless
    // --threads says otherwise: concurrent oracle misses on the same
    // failure set can double-count, and the recorded oracle counters must
    // be reproducible. (Sharded runs carry no oracle, so every counter is
    // thread-invariant and no pin is needed.)
    if ((!cfg.json_path.empty() || !cfg.check_path.empty()) && !cfg.threads_set) {
      opts.num_threads = 1;
    }
  }
  const SweepEngine engine(opts);
  SweepReport report;
  if (cfg.per_pair || !cfg.json_path.empty() || !cfg.check_path.empty()) {
    report = engine.run_report(g, *pattern, *source);
  } else {
    report.totals = engine.run(g, *pattern, *source);
  }

  if (stream) {
    // Stream mode: the report (exactly the bytes --json would record, plus
    // the trailing newline) goes to stdout, nothing else does. Corrupt-mode
    // fault injection still needs a file to tear, so the bytes take a
    // round-trip through a temp file the injector can truncate.
    std::string body = serialize_report(report, cfg) + "\n";
    if (cfg.shard_set) {
      std::string tmpl =
          (std::filesystem::temp_directory_path() / "pofl_stream_XXXXXX").string();
      const int tfd = mkstemp(tmpl.data());
      if (tfd >= 0) {
        close(tfd);
        if (write_json_file(tmpl, body.substr(0, body.size() - 1))) {
          fault.after_write(tmpl);
          body = read_file(tmpl);
        }
        std::error_code ec;
        std::filesystem::remove(tmpl, ec);
      }
    }
    if (!write_all(STDOUT_FILENO, body.data(), body.size())) {
      std::fprintf(stderr, "error: cannot write report to stdout\n");
      return 1;
    }
    return 0;
  }
  if (cfg.shard_set) {
    std::printf("shard:            %d/%d (%lld of %lld scenarios)\n", cfg.shard_index,
                cfg.shard_count, static_cast<long long>(report.totals.total),
                static_cast<long long>(full_total));
  } else if (cfg.exhaustive) {
    std::printf("scenarios:        %lld (%zu pairs x |F|<=%d exhaustive)\n",
                static_cast<long long>(report.totals.total), pairs.size(), cfg.trials);
  } else {
    std::printf("scenarios:        %lld (%zu pairs x %d trials, p=%.3f)\n",
                static_cast<long long>(report.totals.total), pairs.size(), cfg.trials, cfg.p);
  }
  print_report(report, cfg.per_pair);
  const int rc = emit_and_check(serialize_report(report, cfg), cfg.json_path, cfg.check_path);
  // Corrupt-mode injection: a clean exit with a torn output file — the
  // failure only shard-output validation can catch.
  if (cfg.shard_set) fault.after_write(cfg.json_path);
  return rc;
}

int cmd_export_zoo(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto zoo = make_synthetic_zoo();
  // Fat-trees ride along with the zoo export: k=4 stays in the single-word
  // regime, k=6 (108 links) is the house wide-mask exercise graph.
  for (const int k : {4, 6}) {
    const Graph ft = make_fat_tree(k);
    const std::string name = "synth-fattree-k" + std::to_string(k) + "-" +
                             std::to_string(ft.num_vertices()) + "-" +
                             std::to_string(ft.num_edges());
    zoo.push_back({name, ft});
  }
  int written = 0;
  for (const auto& net : zoo) {
    const std::string path = dir + "/" + net.name + ".graphml";
    std::ofstream out(path);
    if (!out) continue;
    out << to_graphml(net.graph, net.name);
    ++written;
  }
  std::printf("wrote %d GraphML files to %s\n", written, dir.c_str());
  return written == static_cast<int>(zoo.size()) ? 0 : 1;
}

// ---- merge -----------------------------------------------------------------

/// Folds shard reports — and partial (incomplete) merges — into one.
/// Coverage is tracked per shard index: a partial input contributes every
/// shard except its recorded missing ones, so `merge partial.json
/// shard_2.json` of a 4-shard sweep whose shard 2 was lost reconstructs
/// the complete result, byte-identical to an uninterrupted run. A merge
/// that still misses shards serializes with the "incomplete" provenance
/// block and refuses --check (a partial result can never reproduce a
/// complete baseline).
int cmd_merge(const std::vector<std::string>& paths, const std::string& json_path,
              const std::string& check_path) {
  SweepReport merged;
  int shard_count = 0;
  int unmarked = 0;
  int partial_inputs = 0;
  std::vector<bool> seen_index;
  std::vector<int> missing_attempts;  // per shard, from partial provenance

  const auto ensure_shard_count = [&](int count, const std::string& path) -> bool {
    if (shard_count == 0) {
      shard_count = count;
      seen_index.assign(static_cast<size_t>(count), false);
      missing_attempts.assign(static_cast<size_t>(count), 0);
      return true;
    }
    if (count != shard_count) {
      std::fprintf(stderr, "error: %s uses shard count %d but earlier reports used %d\n",
                   path.c_str(), count, shard_count);
      return false;
    }
    return true;
  };

  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read report %s\n", path.c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ShardInfo shard;
    IncompleteInfo incomplete;
    std::string parse_error;
    const auto report = report_from_json(text, &shard, &parse_error, &incomplete);
    if (!report.has_value()) {
      // Name the file and the byte offset: "which shard file is truncated"
      // is the question an operator recovering a 95%-done sweep is asking.
      std::fprintf(stderr, "error: cannot parse report %s: %s\n", path.c_str(),
                   parse_error.c_str());
      return 1;
    }
    if (shard.present) {
      if (!ensure_shard_count(shard.count, path)) return 1;
      if (seen_index[static_cast<size_t>(shard.index)]) {
        std::fprintf(stderr, "error: shard %d/%d appears twice (%s)\n", shard.index,
                     shard.count, path.c_str());
        return 1;
      }
      seen_index[static_cast<size_t>(shard.index)] = true;
    } else if (incomplete.present) {
      ++partial_inputs;
      if (!ensure_shard_count(incomplete.shard_count, path)) return 1;
      // The partial covers every shard it does NOT list as missing.
      std::vector<bool> missing_here(static_cast<size_t>(shard_count), false);
      for (size_t k = 0; k < incomplete.missing_shards.size(); ++k) {
        missing_here[static_cast<size_t>(incomplete.missing_shards[k])] = true;
        missing_attempts[static_cast<size_t>(incomplete.missing_shards[k])] =
            incomplete.attempts[k];
      }
      for (int i = 0; i < shard_count; ++i) {
        if (missing_here[static_cast<size_t>(i)]) continue;
        if (seen_index[static_cast<size_t>(i)]) {
          std::fprintf(stderr,
                       "error: shard %d is covered both by partial report %s and an "
                       "earlier input\n",
                       i, path.c_str());
          return 1;
        }
        seen_index[static_cast<size_t>(i)] = true;
      }
    } else {
      ++unmarked;
    }
    merged.merge(*report);
  }
  if (unmarked > 0 && paths.size() > 1) {
    std::fprintf(stderr,
                 "note: %d of %zu inputs carry no shard provenance — duplicate or "
                 "overlapping reports cannot be detected\n",
                 unmarked, paths.size());
  }
  std::vector<int> missing;
  for (size_t i = 0; i < seen_index.size(); ++i) {
    if (!seen_index[i]) missing.push_back(static_cast<int>(i));
  }
  std::printf("merged:           %zu reports, %lld scenarios, %zu pairs\n", paths.size(),
              static_cast<long long>(merged.totals.total), merged.per_pair.size());
  if (!missing.empty()) {
    std::string list;
    for (const int m : missing) list += (list.empty() ? "" : ",") + std::to_string(m);
    std::fprintf(stderr,
                 "note: merged %d of %d shards (missing: %s) — partial result, not "
                 "comparable to an unsharded sweep\n",
                 shard_count - static_cast<int>(missing.size()), shard_count, list.c_str());
    if (!check_path.empty()) {
      std::fprintf(stderr,
                   "error: cannot --check an incomplete merge (missing shard%s %s) against "
                   "a complete baseline\n",
                   missing.size() > 1 ? "s" : "", list.c_str());
      return 1;
    }
    IncompleteInfo out_incomplete;
    out_incomplete.present = true;
    out_incomplete.shard_count = shard_count;
    out_incomplete.missing_shards = missing;
    for (const int m : missing) {
      out_incomplete.attempts.push_back(missing_attempts[static_cast<size_t>(m)]);
    }
    print_report(merged, /*per_pair=*/false);
    return emit_and_check(to_json_partial(merged, out_incomplete), json_path, "");
  }
  if (partial_inputs > 0) {
    std::printf("recovered:        partial input%s completed to a full %d-shard merge\n",
                partial_inputs > 1 ? "s" : "", shard_count);
  }
  print_report(merged, /*per_pair=*/false);
  return emit_and_check(to_json(merged), json_path, check_path);
}

// ---- serve / submit --------------------------------------------------------

SweepServer* g_server = nullptr;

/// SIGINT/SIGTERM -> graceful daemon shutdown. stop() only stores an atomic
/// flag, so this is signal-safe; the accept loop notices within its poll
/// interval, drains the live connections, and run() returns.
void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int cmd_serve(const std::vector<std::string>& graphml_paths, const ServeOptions& opts) {
  SweepServer server(opts);
  std::string error;
  for (const std::string& path : graphml_paths) {
    if (!server.register_graphml(path, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  if (!server.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::printf("pofl_serve: %zu graph(s) registered, cache capacity %d\n", graphml_paths.size(),
              opts.cache_capacity);
  // Scripts scrape this line for the bound port (essential with --port 0).
  std::printf("listening on %s:%d\n", opts.bind_address.c_str(), server.port());
  std::fflush(stdout);
  server.run();
  g_server = nullptr;
  std::printf("pofl_serve: shutdown complete\n");
  return 0;
}

int connect_to(const std::string& spec, std::string& error) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    error = "target must be <host:port>, got '" + spec + "'";
    return -1;
  }
  const std::string host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    error = std::string("cannot resolve ") + spec + ": " + gai_strerror(rc);
    return -1;
  }
  int fd = -1;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) error = "cannot connect to " + spec;
  return fd;
}

/// One request line in, one response line out. The response is printed
/// verbatim; --json/--check operate on the report/result/witness body
/// extracted from the envelope and re-serialized byte-exactly (raw number
/// spellings survive the parse), so a cached daemon answer diffs clean
/// against a golden `sweep --json` recording.
int cmd_submit(const std::string& target, const std::string& request,
               const std::string& json_path, const std::string& check_path) {
  std::string error;
  const int fd = connect_to(target, error);
  if (fd < 0) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::string out = request + "\n";
  if (!write_all(fd, out.data(), out.size())) {
    std::fprintf(stderr, "error: cannot send request to %s\n", target.c_str());
    close(fd);
    return 1;
  }
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = read_eintr(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  const auto newline = response.find('\n');
  if (newline == std::string::npos) {
    std::fprintf(stderr, "error: connection closed before a full response line\n");
    return 1;
  }
  response.resize(newline);
  std::printf("%s\n", response.c_str());

  JsonValue value;
  size_t stop_offset = 0;
  if (!parse_json(response, value, &stop_offset) || value.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "error: response is not a JSON object (stuck at byte %zu)\n",
                 stop_offset);
    return 1;
  }
  const JsonValue* ok = value.find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool || !ok->boolean) {
    const JsonValue* err = value.find("error");
    std::fprintf(stderr, "error: daemon refused the request: %s\n",
                 err != nullptr && err->kind == JsonValue::Kind::kString ? err->text.c_str()
                                                                         : "(no error text)");
    return 1;
  }
  if (json_path.empty() && check_path.empty()) return 0;
  const JsonValue* body = value.find("report");
  if (body == nullptr) body = value.find("result");
  if (body == nullptr) body = value.find("witness");
  if (body == nullptr) {
    std::fprintf(stderr,
                 "error: response carries no report/result/witness body for --json/--check\n");
    return 1;
  }
  JsonWriter w;
  append_json(w, *body);
  return emit_and_check(w.str(), json_path, check_path);
}

}  // namespace

int main(int argc, char** argv) {
  // Every socket/pipe output path in the tool (serve, submit, --json -
  // workers, --procs plumbing) must see a failed write, never a SIGPIPE
  // kill — a client hanging up is an ordinary event, not a crash.
  ignore_sigpipe();
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "classify") return cmd_classify(argv[2]);
  if (cmd == "destinations") return cmd_destinations(argv[2]);
  if (cmd == "attack" && argc == 5) {
    long s = 0;
    long t = 0;
    if (!parse_long(argv[3], s) || !parse_long(argv[4], t)) {
      std::fprintf(stderr, "error: s/t must be integers\n");
      return 2;
    }
    return cmd_attack(argv[2], static_cast<VertexId>(s), static_cast<VertexId>(t));
  }
  if (cmd == "min-defeat" && argc >= 5) {
    MinDefeatConfig cfg;
    cfg.graph_path = argv[2];
    cfg.pattern_spec = argv[3];
    long s = 0;
    long t = 0;
    const std::string pair = argv[4];
    const auto comma = pair.find(',');
    if (comma == std::string::npos || !parse_long(pair.substr(0, comma).c_str(), s) ||
        !parse_long(pair.substr(comma + 1).c_str(), t)) {
      std::fprintf(stderr, "error: pair must be '<s>,<t>' with integer ids, got '%s'\n",
                   argv[4]);
      return 2;
    }
    cfg.source = static_cast<VertexId>(s);
    cfg.destination = static_cast<VertexId>(t);
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
        long budget = 0;
        if (!parse_long(argv[++i], budget) || budget < 0 || budget > 512) {
          std::fprintf(stderr, "error: --budget needs an integer in [0, 512], got '%s'\n",
                       argv[i]);
          return 2;
        }
        cfg.budget = static_cast<int>(budget);
      } else if (std::strcmp(argv[i], "--enumerate") == 0) {
        cfg.enumerate = true;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        cfg.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        cfg.check_path = argv[++i];
      } else {
        return usage();
      }
    }
    return cmd_min_defeat(cfg);
  }
  if (cmd == "export-zoo") return cmd_export_zoo(argv[2]);
  if (cmd == "sweep" && argc >= 5) {
    SweepConfig cfg;
    cfg.graph_path = argv[2];
    cfg.p_arg = argv[3];
    cfg.trials_arg = argv[4];
    cfg.exhaustive = std::strcmp(argv[3], "exhaustive") == 0;
    long trials = 0;
    if (cfg.exhaustive) {
      // trials is the failure budget: every |F| <= k is enumerated, so the
      // cap is the EdgeMask word limit, not the Monte Carlo trial cap.
      if (!parse_long(argv[4], trials) || trials < 0 || trials > 512) {
        std::fprintf(stderr, "error: exhaustive needs a max |F| in [0, 512], got %s\n",
                     argv[4]);
        return 2;
      }
    } else {
      if (!parse_double(argv[3], cfg.p) || !parse_long(argv[4], trials)) {
        std::fprintf(stderr, "error: p and trials must be numeric\n");
        return 2;
      }
      if (trials < 1 || trials > 1'000'000'000) {
        // Range-check the long before the int cast: 2^32+1 must be an error,
        // not a silent 1-trial sweep.
        std::fprintf(stderr, "error: trials must be in [1, 1e9], got %s\n", argv[4]);
        return 2;
      }
    }
    cfg.trials = static_cast<int>(trials);
    const char* supervision_flag = nullptr;  // last --procs-only flag seen
    for (int i = 5; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        cfg.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        cfg.check_path = argv[++i];
      } else if (std::strcmp(argv[i], "--per-pair") == 0) {
        cfg.per_pair = true;
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        long threads = 0;
        if (!parse_long(argv[++i], threads) || threads < 1 || threads > 4096) {
          // 0 is not "default" here: a sweep on zero threads is a typo, and
          // silently mapping it to hardware concurrency hid real mistakes.
          std::fprintf(stderr, "error: --threads needs a positive integer, got '%s'\n",
                       argv[i]);
          return 2;
        }
        cfg.num_threads = static_cast<int>(threads);
        cfg.threads_set = true;
      } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
        if (!parse_shard_spec(argv[++i], cfg.shard_index, cfg.shard_count)) {
          std::fprintf(stderr, "error: --shard needs i/N with 0 <= i < N, got '%s'\n",
                       argv[i]);
          return 2;
        }
        cfg.shard_set = true;
      } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
        long procs = 0;
        if (!parse_long(argv[++i], procs) || procs < 1 || procs > 1024) {
          std::fprintf(stderr, "error: --procs needs a positive integer, got '%s'\n", argv[i]);
          return 2;
        }
        cfg.procs = static_cast<int>(procs);
      } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
        long retries = 0;
        if (!parse_long(argv[++i], retries) || retries < 0 || retries > 100) {
          std::fprintf(stderr, "error: --retries needs an integer in [0, 100], got '%s'\n",
                       argv[i]);
          return 2;
        }
        cfg.retries = static_cast<int>(retries);
        supervision_flag = "--retries";
      } else if (std::strcmp(argv[i], "--backoff-ms") == 0 && i + 1 < argc) {
        long backoff = 0;
        if (!parse_long(argv[++i], backoff) || backoff < 0 || backoff > 600'000) {
          std::fprintf(stderr, "error: --backoff-ms needs an integer in [0, 600000], got '%s'\n",
                       argv[i]);
          return 2;
        }
        cfg.backoff_ms = static_cast<int>(backoff);
        supervision_flag = "--backoff-ms";
      } else if (std::strcmp(argv[i], "--shard-timeout") == 0 && i + 1 < argc) {
        if (!parse_double(argv[++i], cfg.shard_timeout) || cfg.shard_timeout <= 0.0 ||
            cfg.shard_timeout > 86400.0) {
          std::fprintf(stderr,
                       "error: --shard-timeout needs seconds in (0, 86400], got '%s'\n",
                       argv[i]);
          return 2;
        }
        supervision_flag = "--shard-timeout";
      } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
        cfg.allow_partial = true;
        supervision_flag = "--allow-partial";
      } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
        cfg.checkpoint_dir = argv[++i];
        supervision_flag = "--checkpoint-dir";
      } else if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
        if (!parse_host_list(argv[++i], cfg.hosts)) {
          std::fprintf(stderr,
                       "error: --hosts needs a comma-separated list of 'local' and "
                       "'ssh:<host>' entries, got '%s'\n",
                       argv[i]);
          return 2;
        }
        supervision_flag = "--hosts";
      } else if (std::strcmp(argv[i], "--ssh-cmd") == 0 && i + 1 < argc) {
        cfg.ssh_cmd = argv[++i];
        supervision_flag = "--ssh-cmd";
      } else if (std::strcmp(argv[i], "--remote-exe") == 0 && i + 1 < argc) {
        cfg.remote_exe = argv[++i];
        supervision_flag = "--remote-exe";
      } else {
        return usage();
      }
    }
    if (cfg.procs > 0 && cfg.shard_set) {
      std::fprintf(stderr, "error: --procs and --shard are mutually exclusive\n");
      return 2;
    }
    if (supervision_flag != nullptr && cfg.procs == 0) {
      // Supervision knobs on a run with no supervisor would silently do
      // nothing — the same trap as an ignored --threads.
      std::fprintf(stderr, "error: %s only applies to --procs runs\n", supervision_flag);
      return 2;
    }
    if (cfg.stream_stdout() && (cfg.procs > 0 || !cfg.check_path.empty())) {
      std::fprintf(stderr,
                   "error: --json - streams one report to stdout and cannot combine with "
                   "--procs or --check\n");
      return 2;
    }
    return cmd_sweep(cfg);
  }
  if (cmd == "merge") {
    std::vector<std::string> paths;
    std::string json_path;
    std::string check_path;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        check_path = argv[++i];
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        return usage();
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.empty()) return usage();
    return cmd_merge(paths, json_path, check_path);
  }
  if (cmd == "serve") {
    ServeOptions opts;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
        long port = 0;
        if (!parse_long(argv[++i], port) || port < 0 || port > 65535) {
          std::fprintf(stderr, "error: --port needs an integer in [0, 65535], got '%s'\n",
                       argv[i]);
          return 2;
        }
        opts.port = static_cast<int>(port);
      } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
        opts.bind_address = argv[++i];
      } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
        long cache = 0;
        if (!parse_long(argv[++i], cache) || cache < 0 || cache > 1'000'000) {
          std::fprintf(stderr, "error: --cache needs an integer in [0, 1e6], got '%s'\n",
                       argv[i]);
          return 2;
        }
        opts.cache_capacity = static_cast<int>(cache);
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        return usage();
      } else {
        paths.emplace_back(argv[i]);
      }
    }
    if (paths.empty()) return usage();
    return cmd_serve(paths, opts);
  }
  if (cmd == "submit" && argc >= 4) {
    std::string json_path;
    std::string check_path;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
        check_path = argv[++i];
      } else {
        return usage();
      }
    }
    return cmd_submit(argv[2], argv[3], json_path, check_path);
  }
  return usage();
}
