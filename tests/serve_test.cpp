// Conformance suite for the sweep-as-a-service daemon (src/serve).
//
// Four pillars:
//
//   * byte parity — daemon sweep responses reproduce the golden
//     tests/baselines/sweep_*.json recordings bit for bit, including under
//     concurrent clients (the cache stores exact serializations, and the
//     engine's counters are thread- and shard-invariant);
//   * cache discipline — repeat queries hit (and say so in the envelope),
//     LRU eviction fires exactly at capacity, and the hit/miss/eviction
//     counters surfaced by the stats endpoint match the request history;
//   * error containment — malformed requests (bad JSON, unknown cmd,
//     unregistered graph, out-of-range spec fields) get {"ok":false}
//     responses and never kill the session: the same connection keeps
//     answering afterwards, over the real TCP layer too;
//   * parse robustness — the errno/ERANGE regression for read_double: a
//     report whose max_stretch is spelled 1e999 (strtod clamps to HUGE_VAL
//     and signals only through errno) must be rejected, not round-tripped
//     as infinity. Plus the parse -> append_json identity on a checked-in
//     baseline, which the submit client's report extraction rides on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/builders.hpp"
#include "orchestrate/posix_io.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/sweep_json.hpp"
#include "synth/fat_tree.hpp"

namespace pofl {
namespace {

std::string baseline_path(const std::string& name) {
  return std::string(POFL_BASELINE_DIR) + "/" + name;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// The golden baseline body: the recorded file minus its trailing newline —
/// exactly the bytes the daemon's "report" field must carry.
std::string baseline_body(const std::string& name) {
  std::string golden;
  EXPECT_TRUE(read_file(baseline_path(name), golden)) << "missing baseline " << name;
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  return golden;
}

/// Parses a response envelope and extracts (ok, cached, body-bytes) where
/// the body is re-serialized through append_json — the same extraction the
/// submit client performs, so this asserts the byte-round-trip too.
struct Envelope {
  bool ok = false;
  bool cached = false;
  std::string body;
  std::string error;
};

Envelope unpack(const std::string& response, const std::string& body_key) {
  Envelope e;
  JsonValue value;
  if (!parse_json(response, value) || value.kind != JsonValue::Kind::kObject) return e;
  const JsonValue* ok = value.find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) return e;
  e.ok = ok->boolean;
  if (!e.ok) {
    if (const JsonValue* err = value.find("error");
        err != nullptr && err->kind == JsonValue::Kind::kString) {
      e.error = err->text;
    }
    return e;
  }
  if (const JsonValue* cached = value.find("cached");
      cached != nullptr && cached->kind == JsonValue::Kind::kBool) {
    e.cached = cached->boolean;
  }
  if (const JsonValue* body = value.find(body_key); body != nullptr) {
    JsonWriter w;
    append_json(w, *body);
    e.body = w.str();
  }
  return e;
}

constexpr char kK33Sweep[] =
    R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":9,"model":"dest","stretch":false})";

ServeOptions k33_opts(int cache_capacity = 64) {
  ServeOptions opts;
  opts.cache_capacity = cache_capacity;
  return opts;
}

void register_k33(SweepServer& server) {
  std::string error;
  ASSERT_TRUE(server.register_graph("k33", make_complete_bipartite(3, 3), error)) << error;
}

// ---- byte parity -----------------------------------------------------------

TEST(ServeSweep, MatchesGoldenBaselineAndCachesRepeat) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");

  const Envelope first = unpack(server.handle_request(kK33Sweep), "report");
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.body, golden)
      << "daemon sweep diverged from the checked-in engine baseline";

  const Envelope second = unpack(server.handle_request(kK33Sweep), "report");
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cached) << "repeat of an identical spec must hit the cache";
  EXPECT_EQ(second.body, golden) << "cached bytes differ from the uncached run";

  const ResultCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ServeSweep, ConcurrentClientsAreBitIdentical) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");

  // Cold start: every thread fires the same query with no warm-up, so
  // several may race the first computation — all must serialize identically.
  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back(
        [&server, &responses, i] { responses[static_cast<size_t>(i)] = server.handle_request(kK33Sweep); });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const Envelope e = unpack(responses[static_cast<size_t>(i)], "report");
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_EQ(e.body, golden) << "client " << i << " saw different report bytes";
  }
}

TEST(ServeSweep, ExplicitPairListMatchesFatTreeBaseline) {
  // The wide-mask baseline: |F| <= 2 on the 108-link fat-tree, six probe
  // pairs — exercises the request's "pairs" field and multi-word masks.
  ServeOptions opts;
  SweepServer server(opts);
  std::string error;
  ASSERT_TRUE(server.register_graph("ft6", make_fat_tree(6), error)) << error;
  const std::string request =
      R"({"cmd":"sweep","graph":"ft6","mode":"exhaustive","k":2,"model":"dest",)"
      R"("stretch":false,"pairs":[[0,44],[9,30],[14,40],[20,10],[35,5],[44,0]]})";
  const Envelope e = unpack(server.handle_request(request), "report");
  ASSERT_TRUE(e.ok) << e.error;
  EXPECT_EQ(e.body, baseline_body("sweep_fattree_exhaustive.json"));
}

TEST(ServeSweep, ShardedResponsesMergeToTheUnshardedReport) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::string golden = baseline_body("sweep_k33_exhaustive.json");
  SweepReport merged;
  for (int i = 0; i < 3; ++i) {
    const std::string request =
        R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":9,"model":"dest",)"
        R"("stretch":false,"shard":[)" +
        std::to_string(i) + R"(,3]})";
    const Envelope e = unpack(server.handle_request(request), "report");
    ASSERT_TRUE(e.ok) << e.error;
    ShardInfo info;
    std::string parse_error;
    const auto report = report_from_json(e.body, &info, &parse_error);
    ASSERT_TRUE(report.has_value()) << parse_error;
    EXPECT_TRUE(info.present);
    EXPECT_EQ(info.index, i);
    EXPECT_EQ(info.count, 3);
    merged.merge(*report);
  }
  EXPECT_EQ(to_json(merged), golden)
      << "daemon shard responses do not merge to the unsharded baseline";
}

// ---- cache discipline ------------------------------------------------------

TEST(ServeCache, EvictsLeastRecentlyUsedAtCapacity) {
  SweepServer server(k33_opts(/*cache_capacity=*/2));
  register_k33(server);
  const auto sweep_with_seed = [&](int seed) {
    const std::string request =
        R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"seed":)" +
        std::to_string(seed) + "}";
    return unpack(server.handle_request(request), "report");
  };

  ASSERT_TRUE(sweep_with_seed(1).ok);  // insert A        cache: [A]
  ASSERT_TRUE(sweep_with_seed(2).ok);  // insert B        cache: [B A]
  ASSERT_TRUE(sweep_with_seed(3).ok);  // insert C -> evict A   cache: [C B]
  ResultCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);

  EXPECT_FALSE(sweep_with_seed(1).cached) << "evicted entry must miss";
  EXPECT_TRUE(sweep_with_seed(3).cached) << "recent entry must survive the eviction";
  stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);  // re-inserting A evicted B
}

TEST(ServeCache, GraphHashIsContentAddressed) {
  // Two registrations with identical structure share cache entries; a
  // different structure cannot.
  const std::string h1 = graph_content_hash(make_complete_bipartite(3, 3));
  const std::string h2 = graph_content_hash(make_complete_bipartite(3, 3));
  const std::string h3 = graph_content_hash(make_complete(5));
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_EQ(h1.size(), 16u);
}

// ---- error containment -----------------------------------------------------

TEST(ServeErrors, MalformedRequestsGetJsonErrorsAndSessionSurvives) {
  SweepServer server(k33_opts());
  register_k33(server);
  const std::vector<std::string> bad = {
      "this is not json",
      "{\"no_cmd\":1}",
      "{\"cmd\":\"frobnicate\"}",
      R"({"cmd":"sweep","graph":"nope","mode":"iid","p":0.1,"trials":2})",
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":1.5,"trials":2})",
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":0})",
      R"({"cmd":"sweep","graph":"k33","mode":"exhaustive"})",
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"shard":[2,2]})",
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.1,"trials":2,"pairs":[[0,0]]})",
      R"({"cmd":"min-defeat","graph":"k33","source":0,"destination":99})",
  };
  for (const std::string& request : bad) {
    const Envelope e = unpack(server.handle_request(request), "report");
    EXPECT_FALSE(e.ok) << "accepted: " << request;
    EXPECT_FALSE(e.error.empty()) << "no error text for: " << request;
  }
  // The session keeps answering after every rejection.
  EXPECT_EQ(server.handle_request("{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
}

// ---- the TCP layer ---------------------------------------------------------

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::string roundtrip(int fd, const std::string& request) {
  const std::string out = request + "\n";
  EXPECT_TRUE(write_all(fd, out.data(), out.size()));
  std::string response;
  char chunk[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = read_eintr(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  const auto newline = response.find('\n');
  EXPECT_NE(newline, std::string::npos) << "connection closed before a response";
  if (newline != std::string::npos) response.resize(newline);
  return response;
}

TEST(ServeSocket, ConcurrentTcpClientsShutdownCleanly) {
  SweepServer server(k33_opts());
  register_k33(server);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int port = server.port();
  ASSERT_GT(port, 0);
  std::thread daemon([&server] { server.run(); });

  const std::string golden = baseline_body("sweep_k33_exhaustive.json");
  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port, &responses, i] {
      const int fd = connect_loopback(port);
      responses[static_cast<size_t>(i)] = roundtrip(fd, kK33Sweep);
      close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    const Envelope e = unpack(responses[static_cast<size_t>(i)], "report");
    ASSERT_TRUE(e.ok) << e.error;
    EXPECT_EQ(e.body, golden) << "TCP client " << i << " saw different report bytes";
  }

  // One session: garbage, then a live request — the error must not drop the
  // connection (satellite: connection survives malformed input).
  const int fd = connect_loopback(port);
  const Envelope bad = unpack(roundtrip(fd, "][ definitely not json"), "report");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(roundtrip(fd, "{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
  // Shutdown over the same connection: response first, then the daemon
  // drains and run() returns.
  EXPECT_EQ(roundtrip(fd, "{\"cmd\":\"shutdown\"}"), "{\"ok\":true,\"stopping\":true}");
  close(fd);
  daemon.join();
  EXPECT_TRUE(server.stop_requested());
}

/// A numeric field of /proc/self/status ("Threads", or "VmSize" in kB).
int64_t proc_status_field(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ":", 0) == 0) return std::stoll(line.substr(name.size() + 1));
  }
  return -1;
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped) {
  // Each connection gets a handler thread, and the accept loop joins the
  // finished ones as it goes. Left joinable until shutdown, every finished
  // handler kept its stack mapped: VmSize grew by one stack per connection.
  SweepServer server(k33_opts());
  register_k33(server);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int port = server.port();
  std::thread daemon([&server] { server.run(); });

  const int64_t threads_before = proc_status_field("Threads");
  const int64_t vm_before_kb = proc_status_field("VmSize");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_before_kb, 0);
  for (int i = 0; i < 2000; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_EQ(roundtrip(fd, "{\"cmd\":\"ping\"}"), "{\"ok\":true,\"pong\":true}");
    close(fd);
  }
  // A handler still draining its closed socket may not be joined yet.
  EXPECT_LE(proc_status_field("Threads"), threads_before + 4);
  // 2,000 leaked 8 MB stacks would be ~16 GB. Reaped, what remains is
  // glibc's stack cache and a few malloc arenas: a few hundred MB at most.
  EXPECT_LE(proc_status_field("VmSize"), vm_before_kb + 1024 * 1024);

  const int fd = connect_loopback(port);
  EXPECT_EQ(roundtrip(fd, "{\"cmd\":\"shutdown\"}"), "{\"ok\":true,\"stopping\":true}");
  close(fd);
  daemon.join();
}

// ---- transports ------------------------------------------------------------

TEST(ServeTransport, ParsesHostListsAndQuotes) {
  std::vector<HostSpec> hosts;
  ASSERT_TRUE(parse_host_list("local,ssh:worker@node1,local", hosts));
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_FALSE(hosts[0].ssh);
  EXPECT_TRUE(hosts[1].ssh);
  EXPECT_EQ(hosts[1].host, "worker@node1");
  EXPECT_EQ(to_string(hosts[1]), "ssh:worker@node1");
  EXPECT_FALSE(parse_host_list("", hosts));
  EXPECT_FALSE(parse_host_list("local,,local", hosts));
  EXPECT_FALSE(parse_host_list("telnet:old", hosts));
  EXPECT_FALSE(parse_host_list("ssh:", hosts));

  EXPECT_EQ(shell_quote("plain"), "'plain'");
  EXPECT_EQ(shell_quote("has space"), "'has space'");
  EXPECT_EQ(shell_quote("don't"), "'don'\\''t'");
}

// ---- parse robustness (the read_double ERANGE regression) ------------------

TEST(ServeJson, ReadDoubleRejectsErangeOverflow) {
  // 1e999 overflows double: strtod clamps to HUGE_VAL and signals only via
  // errno, which the old read_double never checked — the report parsed
  // "successfully" with max_stretch = inf and could never round-trip.
  JsonValue obj;
  ASSERT_TRUE(parse_json(R"({"big":1e999,"small":1e-999,"fine":1.5})", obj));
  double out = 0.0;
  EXPECT_FALSE(json_read_double(obj, "big", out)) << "overflow must be rejected";
  EXPECT_TRUE(json_read_double(obj, "fine", out));
  EXPECT_EQ(out, 1.5);

  // End to end: a recorded report whose max_stretch is torn into 1e999 must
  // fail to parse with a diagnosis, not produce an infinite report.
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("sweep_k33_exhaustive.json"), golden));
  const auto pos = golden.find("\"max_stretch\":");
  ASSERT_NE(pos, std::string::npos);
  const auto value_start = pos + std::string("\"max_stretch\":").size();
  const auto value_end = golden.find_first_of(",}", value_start);
  const std::string torn = golden.substr(0, value_start) + "1e999" + golden.substr(value_end);
  std::string parse_error;
  EXPECT_FALSE(report_from_json(torn, nullptr, &parse_error).has_value());
  EXPECT_NE(parse_error.find("max_stretch"), std::string::npos)
      << "diagnosis must name the offending field, got: " << parse_error;
}

TEST(ServeJson, ParseAppendRoundTripsBaselineBytes) {
  // The identity the submit client's --json/--check extraction rides on:
  // parse_json + append_json reproduces the writer's bytes exactly (raw
  // number spellings survive).
  std::string golden;
  ASSERT_TRUE(read_file(baseline_path("cli_zoo_procs.json"), golden));
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  JsonValue value;
  ASSERT_TRUE(parse_json(golden, value));
  JsonWriter w;
  append_json(w, value);
  EXPECT_EQ(w.str(), golden);
}

}  // namespace
}  // namespace pofl
