#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/bitmask.hpp"
#include "graph/graphml.hpp"
#include "orchestrate/posix_io.hpp"
#include "search/min_defeat.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {

namespace {

SweepOptions stretch_opts() {
  SweepOptions o;
  o.compute_stretch = true;
  return o;
}

std::string error_response(const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.key("ok");
  w.value(false);
  w.key("error");
  w.value(message);
  w.end_object();
  return w.str();
}

/// {"ok":true,"cached":b,"key":k,"<body_key>":<body>} — the body is spliced
/// in verbatim (it is already the exact serialization the cache stores, and
/// the bytes `submit --json` must reproduce).
std::string envelope(bool cached, const std::string& key, const std::string& body_key,
                     const std::string& body) {
  std::string out = "{\"ok\":true,\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"key\":\"" + json_escape(key) + "\",\"" + body_key + "\":";
  out += body;
  out += "}";
  return out;
}

/// Canonical spelling of a request double for the cache key (two requests
/// spelling the same value differently must share an entry).
std::string canon_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool read_bool_field(const JsonValue& obj, const std::string& key, bool& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return false;
  out = v->boolean;
  return true;
}

bool read_string_field(const JsonValue& obj, const std::string& key, std::string& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  out = v->text;
  return true;
}

/// The scenario spec shared by sweep and witness requests, decoded and
/// validated once. `key_part` is its canonical cache-key spelling.
struct SourceSpec {
  bool exhaustive = false;
  double p = 0.0;
  int trials = 0;
  int64_t seed = 1;
  int k = 0;
  RoutingModel model = RoutingModel::kSourceDestination;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::string key_part;
};

bool decode_source_spec(const JsonValue& req, const Graph& g, SourceSpec& spec,
                        std::string& error) {
  std::string mode;
  if (!read_string_field(req, "mode", mode) || (mode != "iid" && mode != "exhaustive")) {
    error = "need \"mode\":\"iid\" or \"mode\":\"exhaustive\"";
    return false;
  }
  spec.exhaustive = mode == "exhaustive";
  if (spec.exhaustive) {
    int64_t k = 0;
    if (!json_read_int(req, "k", k) || k < 0 || k > EdgeMask::kMaxBits) {
      error = "exhaustive mode needs \"k\" in [0, " + std::to_string(EdgeMask::kMaxBits) + "]";
      return false;
    }
    spec.k = static_cast<int>(k);
  } else {
    int64_t trials = 0;
    if (!json_read_double(req, "p", spec.p) || spec.p < 0.0 || spec.p > 1.0) {
      error = "iid mode needs \"p\" in [0, 1]";
      return false;
    }
    if (!json_read_int(req, "trials", trials) || trials < 1 || trials > 1'000'000'000) {
      error = "iid mode needs \"trials\" in [1, 1e9]";
      return false;
    }
    spec.trials = static_cast<int>(trials);
    if (req.find("seed") != nullptr &&
        (!json_read_int(req, "seed", spec.seed) || spec.seed < 0)) {
      error = "\"seed\" must be a non-negative integer";
      return false;
    }
  }

  std::string model = "sd";
  if (req.find("model") != nullptr && !read_string_field(req, "model", model)) {
    error = "\"model\" must be a string";
    return false;
  }
  if (model == "sd") {
    spec.model = RoutingModel::kSourceDestination;
  } else if (model == "dest") {
    spec.model = RoutingModel::kDestinationOnly;
  } else {
    error = "unknown model '" + model + "' (want \"sd\" or \"dest\")";
    return false;
  }

  std::string pairs_key = "all";
  if (const JsonValue* pairs = req.find("pairs"); pairs != nullptr) {
    if (pairs->kind != JsonValue::Kind::kArray || pairs->items.empty()) {
      error = "\"pairs\" must be a non-empty array of [s,t] pairs";
      return false;
    }
    pairs_key.clear();
    for (const JsonValue& item : pairs->items) {
      int64_t s = 0;
      int64_t t = 0;
      if (item.kind != JsonValue::Kind::kArray || item.items.size() != 2 ||
          item.items[0].kind != JsonValue::Kind::kNumber ||
          item.items[1].kind != JsonValue::Kind::kNumber) {
        error = "each pair must be a two-element [s,t] array";
        return false;
      }
      // Route the elements through the object reader for its errno/trailing
      // checks: wrap them in a throwaway object.
      JsonValue wrap;
      wrap.kind = JsonValue::Kind::kObject;
      wrap.fields.emplace_back("s", item.items[0]);
      wrap.fields.emplace_back("t", item.items[1]);
      if (!json_read_int(wrap, "s", s) || !json_read_int(wrap, "t", t) || s < 0 || t < 0 ||
          s >= g.num_vertices() || t >= g.num_vertices() || s == t) {
        error = "pair out of range for a " + std::to_string(g.num_vertices()) +
                "-vertex graph (need 0 <= s,t < n, s != t)";
        return false;
      }
      if (!pairs_key.empty()) pairs_key += ";";
      pairs_key += std::to_string(s) + "," + std::to_string(t);
      spec.pairs.emplace_back(static_cast<VertexId>(s), static_cast<VertexId>(t));
    }
  } else {
    spec.pairs = all_ordered_pairs(g);
  }

  spec.key_part = "model=" + model + "|pattern=shortest-path|";
  if (spec.exhaustive) {
    spec.key_part += "exhaustive|k=" + std::to_string(spec.k);
  } else {
    spec.key_part += "iid|p=" + canon_double(spec.p) + "|trials=" + std::to_string(spec.trials) +
                     "|seed=" + std::to_string(spec.seed);
  }
  spec.key_part += "|pairs=" + pairs_key;
  return true;
}

std::unique_ptr<ScenarioSource> make_source(const SourceSpec& spec, const Graph& g,
                                            std::string& error) {
  try {
    if (spec.exhaustive) {
      return std::make_unique<ExhaustiveFailureSource>(g, spec.k, spec.pairs);
    }
    return std::make_unique<RandomFailureSource>(RandomFailureSource::iid(
        g, spec.p, spec.trials, static_cast<uint64_t>(spec.seed), spec.pairs));
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return nullptr;
  }
}

}  // namespace

SweepServer::SweepServer(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity),
      stretch_engine_(stretch_opts()),
      plain_engine_(SweepOptions{}) {}

SweepServer::~SweepServer() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

bool SweepServer::register_graph(const std::string& name, Graph g, std::string& error) {
  if (find_graph(name) != nullptr) {
    error = "graph '" + name + "' is already registered";
    return false;
  }
  auto entry = std::make_unique<GraphEntry>();
  entry->name = name;
  entry->graph = std::move(g);
  entry->hash = graph_content_hash(entry->graph);
  entry->oracle = std::make_unique<ConnectivityOracle>(entry->graph);
  entry->pattern_sd =
      make_shortest_path_pattern(RoutingModel::kSourceDestination, entry->graph);
  entry->pattern_dest = make_shortest_path_pattern(RoutingModel::kDestinationOnly, entry->graph);
  SweepOptions witness_opts;
  witness_opts.oracle = entry->oracle.get();
  entry->witness_engine = std::make_unique<SweepEngine>(witness_opts);
  graphs_.push_back(std::move(entry));
  return true;
}

bool SweepServer::register_graphml(const std::string& path, std::string& error) {
  auto net = load_graphml(path);
  if (!net.has_value()) {
    error = "cannot parse " + path;
    return false;
  }
  return register_graph(net->name, std::move(net->graph), error);
}

const SweepServer::GraphEntry* SweepServer::find_graph(const std::string& name) const {
  for (const auto& entry : graphs_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

std::string SweepServer::handle_request(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  JsonValue req;
  size_t stop_offset = 0;
  if (!parse_json(line, req, &stop_offset)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("request is not valid JSON (stuck at byte offset " +
                          std::to_string(stop_offset) + ")");
  }
  std::string cmd;
  if (req.kind != JsonValue::Kind::kObject || !read_string_field(req, "cmd", cmd)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("request must be an object with a string \"cmd\"");
  }

  if (cmd == "ping") {
    return "{\"ok\":true,\"pong\":true}";
  }

  if (cmd == "shutdown") {
    stop();
    return "{\"ok\":true,\"stopping\":true}";
  }

  if (cmd == "stats") {
    const ResultCache::Stats s = cache_.stats();
    JsonWriter w;
    w.begin_object();
    w.key("ok");
    w.value(true);
    w.key("cache");
    w.begin_object();
    w.key("hits");
    w.value(s.hits);
    w.key("misses");
    w.value(s.misses);
    w.key("evictions");
    w.value(s.evictions);
    w.key("insertions");
    w.value(s.insertions);
    w.key("entries");
    w.value(s.entries);
    w.key("capacity");
    w.value(s.capacity);
    w.end_object();
    w.key("graphs");
    w.value(static_cast<int64_t>(graphs_.size()));
    w.key("requests");
    w.value(requests_.load(std::memory_order_relaxed));
    w.key("errors");
    w.value(errors_.load(std::memory_order_relaxed));
    w.end_object();
    return w.str();
  }

  if (cmd == "graphs") {
    JsonWriter w;
    w.begin_object();
    w.key("ok");
    w.value(true);
    w.key("graphs");
    w.begin_array();
    for (const auto& entry : graphs_) {
      w.begin_object();
      w.key("name");
      w.value(entry->name);
      w.key("vertices");
      w.value(entry->graph.num_vertices());
      w.key("edges");
      w.value(entry->graph.num_edges());
      w.key("hash");
      w.value(entry->hash);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

  const auto fail = [this](const std::string& message) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(message);
  };

  if (cmd != "sweep" && cmd != "witness" && cmd != "min-defeat") {
    return fail("unknown cmd '" + cmd + "'");
  }

  std::string graph_name;
  if (!read_string_field(req, "graph", graph_name)) {
    return fail("need a string \"graph\" naming a registered graph");
  }
  const GraphEntry* entry = find_graph(graph_name);
  if (entry == nullptr) {
    return fail("graph '" + graph_name + "' is not registered (see cmd \"graphs\")");
  }
  const Graph& g = entry->graph;

  if (cmd == "min-defeat") {
    std::string pattern_spec = "shortest-path";
    if (req.find("pattern") != nullptr && !read_string_field(req, "pattern", pattern_spec)) {
      return fail("\"pattern\" must be a string");
    }
    int64_t s = -1;
    int64_t t = -1;
    if (!json_read_int(req, "source", s) || !json_read_int(req, "destination", t) || s < 0 ||
        t < 0 || s >= g.num_vertices() || t >= g.num_vertices() || s == t) {
      return fail("need integer \"source\"/\"destination\" with 0 <= s,t < n and s != t");
    }
    int64_t budget = g.num_edges();
    if (req.find("budget") != nullptr &&
        (!json_read_int(req, "budget", budget) || budget < 0 || budget > EdgeMask::kMaxBits)) {
      return fail("\"budget\" must be an integer in [0, " + std::to_string(EdgeMask::kMaxBits) +
                  "]");
    }
    if (g.num_edges() > EdgeMask::kMaxBits) {
      return fail("graph has " + std::to_string(g.num_edges()) +
                  " links, above the exact-search limit of " +
                  std::to_string(EdgeMask::kMaxBits));
    }
    const auto pattern = make_named_pattern(pattern_spec, g);
    if (pattern == nullptr) {
      return fail("unknown pattern '" + pattern_spec + "' (want " + kNamedPatterns + ")");
    }

    const std::string key = "min-defeat|" + entry->hash + "|pattern=" + pattern_spec +
                            "|s=" + std::to_string(s) + "|t=" + std::to_string(t) +
                            "|budget=" + std::to_string(budget);
    if (auto cached = cache_.lookup(key); cached.has_value()) {
      return envelope(true, key, "result", *cached);
    }
    SearchOptions search_opts;
    search_opts.oracle = entry->oracle.get();  // warm across requests
    const MinDefeatResult result =
        min_defeat_search(g, *pattern, static_cast<VertexId>(s), static_cast<VertexId>(t),
                          static_cast<int>(budget), search_opts);
    JsonWriter w;
    append_json(w, result, g);
    cache_.insert(key, w.str());
    return envelope(false, key, "result", w.str());
  }

  // sweep / witness share the scenario-spec decoding.
  SourceSpec spec;
  std::string spec_error;
  if (!decode_source_spec(req, g, spec, spec_error)) return fail(spec_error);
  const ForwardingPattern& pattern = spec.model == RoutingModel::kSourceDestination
                                         ? *entry->pattern_sd
                                         : *entry->pattern_dest;

  if (cmd == "witness") {
    const std::string key = "witness|" + entry->hash + "|" + spec.key_part;
    if (auto cached = cache_.lookup(key); cached.has_value()) {
      return envelope(true, key, "witness", *cached);
    }
    auto source = make_source(spec, g, spec_error);
    if (source == nullptr) return fail(spec_error);
    const auto finding = entry->witness_engine->find_first_violation(g, pattern, *source);
    JsonWriter w;
    w.begin_object();
    w.key("found");
    w.value(finding.has_value());
    if (finding.has_value()) {
      w.key("index");
      w.value(finding->index);
      w.key("source");
      w.value(finding->scenario.source);
      w.key("destination");
      if (finding->scenario.destination == kNoVertex) {
        w.null();
      } else {
        w.value(finding->scenario.destination);
      }
      w.key("failures");
      w.begin_array();
      for (const int e : finding->scenario.failures.to_vector()) w.value(e);
      w.end_array();
      w.key("outcome");
      w.value(to_string(finding->routing.outcome));
      w.key("hops");
      w.value(finding->routing.hops);
    }
    w.end_object();
    cache_.insert(key, w.str());
    return envelope(false, key, "witness", w.str());
  }

  // sweep
  bool stretch = true;
  if (req.find("stretch") != nullptr && !read_bool_field(req, "stretch", stretch)) {
    return fail("\"stretch\" must be a boolean");
  }
  int shard_index = 0;
  int shard_count = 1;
  bool shard_set = false;
  if (const JsonValue* shard = req.find("shard"); shard != nullptr) {
    int64_t i = -1;
    int64_t n = -1;
    JsonValue wrap;
    wrap.kind = JsonValue::Kind::kObject;
    if (shard->kind == JsonValue::Kind::kArray && shard->items.size() == 2) {
      wrap.fields.emplace_back("i", shard->items[0]);
      wrap.fields.emplace_back("n", shard->items[1]);
    }
    if (!json_read_int(wrap, "i", i) || !json_read_int(wrap, "n", n) || i < 0 || n < 1 ||
        i >= n || n > 1'000'000) {
      return fail("\"shard\" must be [i,N] with 0 <= i < N");
    }
    shard_index = static_cast<int>(i);
    shard_count = static_cast<int>(n);
    shard_set = true;
  }

  std::string key = "sweep|" + entry->hash + "|" + spec.key_part +
                    "|stretch=" + (stretch ? "1" : "0");
  if (shard_set) {
    key += "|shard=" + std::to_string(shard_index) + "/" + std::to_string(shard_count);
  }
  if (auto cached = cache_.lookup(key); cached.has_value()) {
    return envelope(true, key, "report", *cached);
  }

  auto source = make_source(spec, g, spec_error);
  if (source == nullptr) return fail(spec_error);
  if (shard_set) source->shard(shard_index, shard_count);
  // Oracle-free on purpose: the oracle's hit/miss accounting depends on the
  // request partition, and leaving it out is what makes daemon responses
  // byte-comparable to shard merges and --procs recordings.
  const SweepEngine& engine = stretch ? stretch_engine_ : plain_engine_;
  const SweepReport report = engine.run_report(g, pattern, *source);
  const std::string body =
      shard_set ? to_json_shard(report, shard_index, shard_count) : to_json(report);
  cache_.insert(key, body);
  return envelope(false, key, "report", body);
}

// ---- socket layer ----------------------------------------------------------

bool SweepServer::start(std::string& error) {
  ignore_sigpipe();  // a client hanging up mid-response must not kill us
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    error = "invalid bind address '" + opts_.bind_address + "'";
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (listen(listen_fd_, 64) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  bound_port_ = ntohs(bound.sin_port);
  return true;
}

void SweepServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool drop = false;
  while (!drop) {
    const ssize_t n = read_eintr(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // peer closed (or the server shut the socket down)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = handle_request(line) + "\n";
      if (!write_all(fd, response.data(), response.size())) {
        drop = true;
        break;
      }
      if (stop_requested()) {
        drop = true;  // shutdown: response is out, close the session
        break;
      }
    }
    if (buffer.size() > opts_.max_request_bytes) {
      // One request per line: a line this large is a broken client, and
      // buffering it further would let one connection exhaust the daemon.
      const std::string response = error_response("request line exceeds " +
                                                  std::to_string(opts_.max_request_bytes) +
                                                  " bytes") +
                                   "\n";
      write_all(fd, response.data(), response.size());
      drop = true;
    }
  }
  forget_connection(fd);
  close(fd);
}

void SweepServer::forget_connection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      return;
    }
  }
}

void SweepServer::run() {
  constexpr int kPollMs = 200;  // short timeout: stop() polls the flag
  // Each handler flags its own exit, so the accept loop can join finished
  // connections as it goes instead of holding every thread until shutdown.
  struct Handler {
    std::unique_ptr<std::atomic<bool>> done;
    std::thread thread;
  };
  std::vector<Handler> handlers;
  const auto reap_finished = [&handlers] {
    for (Handler& h : handlers) {
      if (h.done->load(std::memory_order_acquire)) h.thread.join();
    }
    std::erase_if(handlers, [](const Handler& h) { return !h.thread.joinable(); });
  };
  while (!stop_requested()) {
    reap_finished();
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Out of descriptors or kernel memory: the pending connection stays
        // queued, so back off one poll interval (the listen socket would
        // report it ready at once) while handlers finish and free theirs.
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
        continue;
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.push_back(fd);
    }
    handlers.push_back(Handler{std::make_unique<std::atomic<bool>>(false), {}});
    std::atomic<bool>* const done = handlers.back().done.get();
    handlers.back().thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true, std::memory_order_release);
    });
  }
  // Stop accepting, then unblock every connection read so handlers drain.
  close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) shutdown(fd, SHUT_RDWR);
  }
  for (Handler& h : handlers) h.thread.join();
}

}  // namespace pofl
