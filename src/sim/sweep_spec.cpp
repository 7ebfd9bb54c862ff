#include "sim/sweep_spec.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "graph/bitmask.hpp"

namespace pofl {

namespace {

/// Canonical spelling of a request double for the cache key (two requests
/// spelling the same value differently must share an entry).
std::string canon_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::optional<SweepSpec> SweepSpec::from_json(const JsonValue& req, const Graph& g,
                                              std::string& error) {
  SweepSpec spec;
  std::string cmd;
  spec.witness = json_read_string(req, "cmd", cmd) && cmd == "witness";

  std::string mode;
  if (!json_read_string(req, "mode", mode) || (mode != "iid" && mode != "exhaustive")) {
    error = "need \"mode\":\"iid\" or \"mode\":\"exhaustive\"";
    return std::nullopt;
  }
  spec.exhaustive = mode == "exhaustive";
  if (spec.exhaustive) {
    int64_t k = 0;
    if (!json_read_int(req, "k", k) || k < 0 || k > EdgeMask::kMaxBits) {
      error = "exhaustive mode needs \"k\" in [0, " + std::to_string(EdgeMask::kMaxBits) + "]";
      return std::nullopt;
    }
    spec.k = static_cast<int>(k);
  } else {
    int64_t trials = 0;
    if (!json_read_double(req, "p", spec.p) || !(spec.p >= 0.0 && spec.p <= 1.0)) {
      error = "iid mode needs \"p\" in [0, 1]";
      return std::nullopt;
    }
    if (!json_read_int(req, "trials", trials) || trials < 1 || trials > 1'000'000'000) {
      error = "iid mode needs \"trials\" in [1, 1e9]";
      return std::nullopt;
    }
    spec.trials = static_cast<int>(trials);
    if (req.find("seed") != nullptr &&
        (!json_read_int(req, "seed", spec.seed) || spec.seed < 0)) {
      error = "\"seed\" must be a non-negative integer";
      return std::nullopt;
    }
  }

  std::string model = "sd";
  if (req.find("model") != nullptr && !json_read_string(req, "model", model)) {
    error = "\"model\" must be a string";
    return std::nullopt;
  }
  if (model == "sd") {
    spec.model = RoutingModel::kSourceDestination;
  } else if (model == "dest") {
    spec.model = RoutingModel::kDestinationOnly;
  } else {
    error = "unknown model '" + model + "' (want \"sd\" or \"dest\")";
    return std::nullopt;
  }

  if (const JsonValue* pairs = req.find("pairs"); pairs != nullptr) {
    if (pairs->kind != JsonValue::Kind::kArray || pairs->items.empty()) {
      error = "\"pairs\" must be a non-empty array of [s,t] pairs";
      return std::nullopt;
    }
    for (const JsonValue& item : pairs->items) {
      int64_t s = 0;
      int64_t t = 0;
      if (item.kind != JsonValue::Kind::kArray || item.items.size() != 2 ||
          item.items[0].kind != JsonValue::Kind::kNumber ||
          item.items[1].kind != JsonValue::Kind::kNumber) {
        error = "each pair must be a two-element [s,t] array";
        return std::nullopt;
      }
      if (!json_read_int(item.items[0], s) || !json_read_int(item.items[1], t) || s < 0 ||
          t < 0 || s >= g.num_vertices() || t >= g.num_vertices() || s == t) {
        error = "pair out of range for a " + std::to_string(g.num_vertices()) +
                "-vertex graph (need 0 <= s,t < n, s != t)";
        return std::nullopt;
      }
      spec.pairs.emplace_back(static_cast<VertexId>(s), static_cast<VertexId>(t));
    }
  }

  // A witness searches the whole stream and measures no stretch: it reads
  // neither field.
  if (spec.witness) return spec;
  if (req.find("stretch") != nullptr && !json_read_bool(req, "stretch", spec.stretch)) {
    error = "\"stretch\" must be a boolean";
    return std::nullopt;
  }
  if (const JsonValue* shard = req.find("shard"); shard != nullptr) {
    int64_t i = -1;
    int64_t n = -1;
    if (shard->kind != JsonValue::Kind::kArray || shard->items.size() != 2 ||
        !json_read_int(shard->items[0], i) || !json_read_int(shard->items[1], n) || i < 0 ||
        n < 1 || i >= n || n > 1'000'000) {
      error = "\"shard\" must be [i,N] with 0 <= i < N";
      return std::nullopt;
    }
    spec.shard_index = static_cast<int>(i);
    spec.shard_count = static_cast<int>(n);
    spec.shard_set = true;
  }
  return spec;
}

std::optional<SweepSpec> SweepSpec::from_cli_args(const char* mode, const char* count,
                                                  std::string& error, int& exit_code) {
  SweepSpec spec;
  spec.exhaustive = std::strcmp(mode, "exhaustive") == 0;
  exit_code = 2;
  long n = 0;
  if (spec.exhaustive) {
    // The count is the failure budget: every |F| <= k is enumerated, so the
    // cap is the EdgeMask word limit, not the Monte Carlo trial cap.
    if (!parse_long(count, n) || n < 0 || n > EdgeMask::kMaxBits) {
      error = "exhaustive needs a max |F| in [0, " + std::to_string(EdgeMask::kMaxBits) +
              "], got " + count;
      return std::nullopt;
    }
    spec.k = static_cast<int>(n);
    return spec;
  }
  char* end = nullptr;
  spec.p = std::strtod(mode, &end);
  if (end == mode || *end != '\0' || !parse_long(count, n)) {
    error = "p and trials must be numeric";
    return std::nullopt;
  }
  if (n < 1 || n > 1'000'000'000) {
    // Range-check the long before the int cast: 2^32+1 must be an error,
    // not a silent 1-trial sweep.
    error = std::string("trials must be in [1, 1e9], got ") + count;
    return std::nullopt;
  }
  spec.trials = static_cast<int>(n);
  // Written so that NaN fails it too: every comparison with NaN is false.
  if (!(spec.p >= 0.0 && spec.p <= 1.0)) {
    error = "need 0 <= p <= 1 and trials > 0";
    exit_code = 1;
    return std::nullopt;
  }
  return spec;
}

std::unique_ptr<ScenarioSource> SweepSpec::make_source(const Graph& g, std::string& error,
                                                       int64_t* full_total) const {
  auto stream_pairs = pairs.empty() ? all_ordered_pairs(g) : pairs;
  std::unique_ptr<ScenarioSource> source;
  try {
    if (exhaustive) {
      source = std::make_unique<ExhaustiveFailureSource>(g, k, std::move(stream_pairs));
    } else {
      source = std::make_unique<RandomFailureSource>(RandomFailureSource::iid(
          g, p, trials, static_cast<uint64_t>(seed), std::move(stream_pairs)));
    }
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return nullptr;
  }
  if (full_total != nullptr) *full_total = source->total_hint();
  source->shard(shard_index, shard_count);
  return source;
}

std::string SweepSpec::key(const std::string& graph_hash) const {
  std::string out = witness ? "witness|" : "sweep|";
  out += graph_hash + "|model=";
  out += model == RoutingModel::kSourceDestination ? "sd" : "dest";
  out += "|pattern=shortest-path|";
  if (exhaustive) {
    out += "exhaustive|k=" + std::to_string(k);
  } else {
    out += "iid|p=" + canon_double(p) + "|trials=" + std::to_string(trials) +
           "|seed=" + std::to_string(seed);
  }
  out += "|pairs=";
  if (pairs.empty()) out += "all";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ";";
    out += std::to_string(pairs[i].first) + "," + std::to_string(pairs[i].second);
  }
  if (witness) return out;
  out += stretch ? "|stretch=1" : "|stretch=0";
  if (shard_set) {
    out += "|shard=" + std::to_string(shard_index) + "/" + std::to_string(shard_count);
  }
  return out;
}

std::string SweepSpec::report_json(const SweepReport& report) const {
  return shard_set ? to_json_shard(report, shard_index, shard_count) : to_json(report);
}

std::vector<std::string> SweepSpec::worker_args(const std::string& graph, int shard, int count,
                                                const std::string& json_path, int threads) const {
  std::string mode = "exhaustive";
  if (!exhaustive) {
    // Shortest spelling that parses back to the same double.
    char buf[64];
    mode.assign(buf, std::to_chars(buf, buf + sizeof(buf), p).ptr);
  }
  const std::string size = std::to_string(exhaustive ? k : trials);
  const std::string part = std::to_string(shard) + "/" + std::to_string(count);
  const std::string nthreads = std::to_string(threads);
  return {"sweep", graph, mode, size, "--shard", part, "--json", json_path, "--threads", nthreads};
}

}  // namespace pofl
