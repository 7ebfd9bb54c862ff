#pragma once

// One definition of what a sweep is. The CLI's `sweep` command, its shard
// workers, the `--procs` driver and the daemon's sweep/witness requests all
// decode into a SweepSpec and build, key and serialize through it, so the
// two front ends give the same bytes by construction. The graph is not part
// of a spec: the CLI names a GraphML file, the daemon a registered graph,
// and key() takes the graph's content hash.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "routing/forwarding.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {

struct SweepSpec {
  /// A daemon witness query (find_first_violation over the same stream):
  /// keyed apart from sweeps; stretch and shard do not apply.
  bool witness = false;
  bool exhaustive = false;  // every |F| <= k instead of iid draws
  double p = 0.0;           // iid: per-link failure probability
  int trials = 0;           // iid: draws per pair
  int64_t seed = 1;         // iid: generator seed
  int k = 0;                // exhaustive: largest |F|
  /// Routing model of the shortest-path pattern swept.
  RoutingModel model = RoutingModel::kSourceDestination;
  /// (s, t) pairs; empty means all ordered pairs of the graph.
  std::vector<std::pair<VertexId, VertexId>> pairs;
  bool stretch = true;
  int shard_index = 0;
  int shard_count = 1;
  /// An explicit shard, even 0/1: the report then carries shard provenance.
  bool shard_set = false;

  /// The daemon's request decoder; nullopt with the protocol's error text.
  [[nodiscard]] static std::optional<SweepSpec> from_json(const JsonValue& req, const Graph& g,
                                                          std::string& error);

  /// The CLI's positional `<p> <trials>` or `exhaustive <k>`; nullopt with
  /// the message (no "error: " prefix) and the process exit code.
  [[nodiscard]] static std::optional<SweepSpec> from_cli_args(const char* mode, const char* count,
                                                              std::string& error, int& exit_code);

  /// The scenario stream, already restricted to the shard; nullptr with
  /// `error` when the source rejects the graph (too many links for an
  /// exhaustive mask). `full_total` receives the unsharded scenario count.
  [[nodiscard]] std::unique_ptr<ScenarioSource> make_source(const Graph& g, std::string& error,
                                                            int64_t* full_total = nullptr) const;

  /// The daemon's content-addressed cache key on the graph with this
  /// graph_content_hash.
  [[nodiscard]] std::string key(const std::string& graph_hash) const;

  /// The report bytes this spec records: shard-marked when the shard is
  /// explicit, plain otherwise.
  [[nodiscard]] std::string report_json(const SweepReport& report) const;

  /// `pofl_cli` arguments of the worker for shard `shard` of `count` on the
  /// GraphML file `graph`, writing its report to `json_path` ("-" = stdout).
  /// The CLI spells only the source; every other field must be its default.
  [[nodiscard]] std::vector<std::string> worker_args(const std::string& graph, int shard, int count,
                                                     const std::string& json_path,
                                                     int threads) const;
};

}  // namespace pofl
