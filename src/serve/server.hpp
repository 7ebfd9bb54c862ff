#pragma once

// Sweep-as-a-service: the resident pofl_serve daemon.
//
// Every sweep the CLI runs pays the same startup tax — parse the GraphML,
// rebuild the shortest-path pattern, re-warm the engine's per-worker
// decision caches — and then throws all of it away. The daemon keeps those
// hot: graphs, their forwarding patterns, a per-graph ConnectivityOracle,
// the SweepEngines (whose pooled worker slots persist the routing decision
// cache between runs), and a content-addressed LRU of finished report
// serializations. Clients connect over TCP and speak line-delimited JSON —
// one request object per line, one response object per line, parsed and
// written by the PR 5 machinery in sim/sweep_json (no new dependencies).
//
// Requests ({"cmd": ...}):
//   ping        liveness probe                      -> {"ok":true,"pong":true}
//   stats       cache + request counters            -> {"ok":true,"cache":{...},...}
//   graphs      the registered graph table          -> {"ok":true,"graphs":[...]}
//   shutdown    stop the daemon (response first)    -> {"ok":true,"stopping":true}
//   sweep       run_report over a scenario spec     -> {"ok":true,"cached":b,
//                                                       "key":k,"report":{...}}
//   witness     find_first_violation                -> {..,"witness":{...}}
//   min-defeat  exact minimum defeating set         -> {..,"result":{...}}
//
// A sweep spec: {"cmd":"sweep","graph":<name>,"mode":"iid","p":0.05,
// "trials":20,"seed":1} or {"mode":"exhaustive","k":2}, plus optional
// "model":"sd"|"dest" (default "sd"), "stretch":bool (default true),
// "pairs":[[s,t],...] (default all ordered pairs) and "shard":[i,N] (the
// report then carries shard provenance, mergeable with `pofl_cli merge`).
//
// Determinism is what makes the cache sound: every query is a pure function
// of (graph content, pattern spec, source spec, shard spec) — the exact
// coordinates of the cache key, with the graph addressed by structural hash
// — and daemon sweeps run oracle-free like shard workers do, so a cached
// response, a cold daemon response, and a `pofl_cli sweep --procs` recording
// of the same spec are all byte-identical. (The per-graph oracle still
// serves witness/min-defeat queries, where it accelerates the promise check
// without touching the serialized result.)
//
// Errors never kill the connection: a malformed line gets
// {"ok":false,"error":...} and the session continues. The socket layer is
// EINTR/SIGPIPE-hardened via orchestrate/posix_io (a client hanging up
// mid-response must not take the daemon down).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attacks/pattern_corpus.hpp"
#include "graph/connectivity_oracle.hpp"
#include "graph/graph.hpp"
#include "serve/result_cache.hpp"
#include "sim/sweep.hpp"

namespace pofl {

struct ServeOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 = ephemeral (read the bound port back via port())
  int cache_capacity = 64;
  /// A request line larger than this is rejected (and the connection
  /// dropped): the protocol is one line per request, so an unbounded line
  /// is either abuse or a broken client.
  size_t max_request_bytes = size_t{1} << 20;
};

class SweepServer {
 public:
  explicit SweepServer(ServeOptions opts = {});
  ~SweepServer();
  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Registers a graph under `name` before start(). False (with `error`
  /// set) on duplicate names.
  bool register_graph(const std::string& name, Graph g, std::string& error);

  /// Loads a GraphML file and registers it under its recorded name.
  bool register_graphml(const std::string& path, std::string& error);

  /// Binds and listens; fills port() (meaningful with an ephemeral bind).
  [[nodiscard]] bool start(std::string& error);
  [[nodiscard]] int port() const { return bound_port_; }

  /// Serves until stop() (or a shutdown request). Finished connection
  /// threads are joined as the accept loop goes, the rest before returning —
  /// no orphaned handlers. Running out of descriptors (EMFILE and kin) backs
  /// off and keeps accepting; it never stops the daemon.
  void run();

  /// Requests shutdown. Only stores an atomic flag, so it is safe from a
  /// signal handler; run() notices within its poll interval.
  void stop() { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// One request line -> one response line (no trailing newline). Public so
  /// tests can exercise the protocol without sockets; thread-safe.
  [[nodiscard]] std::string handle_request(const std::string& line);

  [[nodiscard]] ResultCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  /// Everything the daemon keeps hot for one registered graph. The oracle
  /// backs the witness engine's promise checks and the min-defeat search;
  /// the patterns persist so the sweep engines' decision caches stay valid
  /// across requests (a re-made pattern gets a new uid and a cold cache).
  struct GraphEntry {
    std::string name;
    Graph graph;
    std::string hash;
    std::unique_ptr<ConnectivityOracle> oracle;
    std::unique_ptr<ForwardingPattern> pattern_sd;    // shortest-path, source-destination
    std::unique_ptr<ForwardingPattern> pattern_dest;  // shortest-path, destination-only
    std::unique_ptr<SweepEngine> witness_engine;      // oracle-attached
  };

  [[nodiscard]] const GraphEntry* find_graph(const std::string& name) const;

  ServeOptions opts_;
  ResultCache cache_;
  std::vector<std::unique_ptr<GraphEntry>> graphs_;  // registration order

  // Two resident engines shared by every sweep request: stretch on/off is a
  // per-engine option, and keeping both alive keeps both decision caches
  // warm. Engines are thread-safe (pooled worker slots), so concurrent
  // connections share them without serialization.
  SweepEngine stretch_engine_;
  SweepEngine plain_engine_;

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::mutex conn_mutex_;
  std::vector<int> conn_fds_;  // live connection sockets (for shutdown)

  void serve_connection(int fd);
  void forget_connection(int fd);
};

}  // namespace pofl
