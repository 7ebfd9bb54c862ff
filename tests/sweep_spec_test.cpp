// SweepSpec: the one definition of a sweep behind the CLI, its shard workers
// and the daemon.
//
//   * the CLI positional parse keeps its messages and exit codes, and
//     rejects a non-finite p at the range check;
//   * worker_args spells a spec the CLI parses back to the same values;
//   * make_source shards and reports the unsharded total;
//   * a deterministic mutation fuzz over the two decoders that read bytes
//     from outside the process: parse_json -> SweepSpec::from_json (daemon
//     requests) and report_from_json (shard files, merge inputs), seeded
//     with the checked-in --procs baseline. Neither may crash, and every
//     report the parser accepts must re-serialize to JSON that parses back
//     to the same bytes.

#include "sim/sweep_spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/bitmask.hpp"
#include "graph/builders.hpp"
#include "graph/fast_rand.hpp"
#include "sim/sweep_json.hpp"

namespace pofl {
namespace {

struct CliParse {
  std::optional<SweepSpec> spec;
  std::string error;
  int exit_code = 0;
};

CliParse parse_cli(const char* mode, const char* count) {
  CliParse out;
  out.spec = SweepSpec::from_cli_args(mode, count, out.error, out.exit_code);
  return out;
}

TEST(SweepSpec, CliArgsParseIidAndExhaustive) {
  const CliParse iid = parse_cli("0.05", "20");
  ASSERT_TRUE(iid.spec.has_value()) << iid.error;
  EXPECT_FALSE(iid.spec->exhaustive);
  EXPECT_EQ(iid.spec->p, 0.05);
  EXPECT_EQ(iid.spec->trials, 20);
  EXPECT_EQ(iid.spec->seed, 1);
  EXPECT_TRUE(iid.spec->stretch);
  EXPECT_TRUE(iid.spec->pairs.empty());
  EXPECT_FALSE(iid.spec->shard_set);

  const CliParse ex = parse_cli("exhaustive", "2");
  ASSERT_TRUE(ex.spec.has_value()) << ex.error;
  EXPECT_TRUE(ex.spec->exhaustive);
  EXPECT_EQ(ex.spec->k, 2);
}

TEST(SweepSpec, CliArgsKeepTheirMessagesAndExitCodes) {
  struct Case {
    const char* mode;
    const char* count;
    const char* error;
    int exit_code;
  };
  const Case cases[] = {
      {"abc", "10", "p and trials must be numeric", 2},
      {"0.1", "2x", "p and trials must be numeric", 2},
      {"0.1", "0", "trials must be in [1, 1e9], got 0", 2},
      {"0.1", "99999999999999999999", "p and trials must be numeric", 2},
      {"0.1", "4294967297", "trials must be in [1, 1e9], got 4294967297", 2},
      {"exhaustive", "513", "exhaustive needs a max |F| in [0, 512], got 513", 2},
      {"exhaustive", "-1", "exhaustive needs a max |F| in [0, 512], got -1", 2},
      {"1.5", "10", "need 0 <= p <= 1 and trials > 0", 1},
      {"-0.1", "10", "need 0 <= p <= 1 and trials > 0", 1},
      // strtod reads these; the range check must still refuse them.
      {"nan", "10", "need 0 <= p <= 1 and trials > 0", 1},
      {"-nan", "10", "need 0 <= p <= 1 and trials > 0", 1},
      {"NaN", "10", "need 0 <= p <= 1 and trials > 0", 1},
      {"inf", "10", "need 0 <= p <= 1 and trials > 0", 1},
  };
  for (const Case& c : cases) {
    const CliParse got = parse_cli(c.mode, c.count);
    EXPECT_FALSE(got.spec.has_value()) << c.mode << " " << c.count;
    EXPECT_EQ(got.error, c.error) << c.mode << " " << c.count;
    EXPECT_EQ(got.exit_code, c.exit_code) << c.mode << " " << c.count;
  }
}

TEST(SweepSpec, WorkerArgsParseBackToTheSameSpec) {
  for (const double p : {0.05, 0.1 + 0.2, 1.0 / 3.0, 1e-7, 0.0, 1.0}) {
    SweepSpec spec;
    spec.p = p;
    spec.trials = 7;
    const auto args = spec.worker_args("g.graphml", 1, 4, "-", 2);
    ASSERT_EQ(args.size(), 10u);
    EXPECT_EQ(args[0], "sweep");
    EXPECT_EQ(args[1], "g.graphml");
    EXPECT_EQ(std::vector<std::string>(args.begin() + 4, args.end()),
              (std::vector<std::string>{"--shard", "1/4", "--json", "-", "--threads", "2"}));
    const CliParse back = parse_cli(args[2].c_str(), args[3].c_str());
    ASSERT_TRUE(back.spec.has_value()) << back.error;
    EXPECT_EQ(back.spec->p, p) << "spelled " << args[2];
    EXPECT_EQ(back.spec->trials, 7);
  }
  SweepSpec ex;
  ex.exhaustive = true;
  ex.k = 3;
  const auto args = ex.worker_args("g.graphml", 0, 2, "out.json", 1);
  EXPECT_EQ(args[2], "exhaustive");
  EXPECT_EQ(args[3], "3");
  EXPECT_EQ(args[7], "out.json");
}

TEST(SweepSpec, MakeSourceShardsAndCountsTheFullStream) {
  const Graph k5 = make_complete(5);
  SweepSpec spec;
  spec.exhaustive = true;
  spec.k = 1;
  std::string error;
  int64_t full = 0;
  const auto whole = spec.make_source(k5, error, &full);
  ASSERT_NE(whole, nullptr) << error;
  EXPECT_EQ(full, 11 * 20);  // (1 + 10 single failures) x 20 ordered pairs
  EXPECT_EQ(whole->total_hint(), full);

  spec.shard_index = 1;
  spec.shard_count = 3;
  spec.shard_set = true;
  int64_t full_sharded = 0;
  const auto shard = spec.make_source(k5, error, &full_sharded);
  ASSERT_NE(shard, nullptr) << error;
  EXPECT_EQ(full_sharded, full);
  EXPECT_EQ(shard->shard_index(), 1);
  EXPECT_EQ(shard->shard_count(), 3);
  EXPECT_LT(shard->total_hint(), full);

  SweepReport report;
  report.totals.total = 4;
  EXPECT_EQ(spec.report_json(report).rfind("{\"shard\":{\"index\":1,\"count\":3}", 0), 0u);
  spec.shard_set = false;
  EXPECT_EQ(spec.report_json(report), to_json(report));
}

// ---- mutation fuzz ---------------------------------------------------------

std::string read_baseline(const std::string& name) {
  std::ifstream in(std::string(POFL_BASELINE_DIR) + "/" + name);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Byte-level mutations on a fixed generator: flips, inserts (JSON
/// punctuation and digits as well as raw bytes), deletions, truncations and
/// splices with another corpus entry.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::vector<std::string>& corpus) {
    std::string s = corpus[below(corpus.size())];
    const int rounds = 1 + static_cast<int>(below(4));
    for (int r = 0; r < rounds; ++r) {
      const size_t at = s.empty() ? 0 : below(s.size());
      switch (below(6)) {
        case 0:
          if (!s.empty()) s[at] = static_cast<char>(s[at] ^ (1u << below(8)));
          break;
        case 1: {
          static constexpr char kTokens[] = "{}[],:\"-+.eE0123456789 tfn\\";
          s.insert(at, 1, kTokens[below(sizeof(kTokens) - 1)]);
          break;
        }
        case 2:
          s.insert(at, 1, static_cast<char>(below(256)));
          break;
        case 3:
          s.erase(at, 1 + below(16));
          break;
        case 4:
          s.resize(at);
          break;
        default: {
          const std::string& other = corpus[below(corpus.size())];
          const size_t from = other.empty() ? 0 : below(other.size());
          s = s.substr(0, at) + other.substr(from);
          break;
        }
      }
    }
    return s;
  }

 private:
  size_t below(size_t n) { return static_cast<size_t>(rng_.next_below(n)); }

  FastRng rng_;
};

TEST(SweepSpecFuzz, RequestDecoderSurvivesMutations) {
  const Graph k33 = make_complete_bipartite(3, 3);
  const std::vector<std::string> corpus = {
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":0.05,"trials":20,"seed":1})",
      R"({"cmd":"sweep","graph":"k33","mode":"exhaustive","k":2,"model":"dest",)"
      R"("stretch":false,"shard":[1,3]})",
      R"({"cmd":"witness","graph":"k33","mode":"iid","p":0.25,"trials":3,)"
      R"("pairs":[[0,3],[4,1]]})",
      R"({"cmd":"sweep","graph":"k33","mode":"iid","p":1e-3,"trials":1000000000,)"
      R"("seed":9007199254740993,"model":"sd","pairs":[[5,0]],"shard":[0,1]})",
  };
  Mutator mutator(20221);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string text = mutator.mutate(corpus);
    JsonValue req;
    if (!parse_json(text, req) || req.kind != JsonValue::Kind::kObject) continue;
    std::string error;
    const auto spec = SweepSpec::from_json(req, k33, error);
    if (!spec.has_value()) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++decoded;
    // Whatever decodes is in range, so make_source could take it as is.
    if (spec->exhaustive) {
      EXPECT_TRUE(spec->k >= 0 && spec->k <= EdgeMask::kMaxBits) << text;
    } else {
      EXPECT_TRUE(spec->p >= 0.0 && spec->p <= 1.0) << text;
      EXPECT_TRUE(spec->trials >= 1 && spec->trials <= 1'000'000'000) << text;
      EXPECT_GE(spec->seed, 0) << text;
    }
    EXPECT_TRUE(spec->shard_index >= 0 && spec->shard_index < spec->shard_count) << text;
    for (const auto& [s, t] : spec->pairs) {
      EXPECT_TRUE(s >= 0 && t >= 0 && s < k33.num_vertices() && t < k33.num_vertices() &&
                  s != t)
          << text;
    }
    EXPECT_FALSE(spec->key("hash").empty());
  }
  EXPECT_GT(decoded, 100) << "the mutations never reached the decoder";
}

/// The exact serialization a parsed report had, provenance included.
std::string reserialize(const SweepReport& report, const ShardInfo& shard,
                        const IncompleteInfo& incomplete) {
  if (shard.present) return to_json_shard(report, shard.index, shard.count);
  if (incomplete.present) return to_json_partial(report, incomplete);
  return to_json(report);
}

TEST(SweepSpecFuzz, ReportParserSurvivesMutations) {
  std::string golden = read_baseline("cli_zoo_procs.json");
  ASSERT_FALSE(golden.empty());
  if (golden.back() == '\n') golden.pop_back();
  const auto full = report_from_json(golden);
  ASSERT_TRUE(full.has_value());

  // Small seeds cut from the baseline (its totals plus a few rows, in all
  // three provenance shapes) keep each parse cheap; the whole file is
  // mutated a few times too.
  SweepReport cut;
  cut.totals = full->totals;
  cut.per_pair.assign(full->per_pair.begin(), full->per_pair.begin() + 6);
  IncompleteInfo partial;
  partial.present = true;
  partial.shard_count = 4;
  partial.missing_shards = {1, 3};
  partial.attempts = {2, 3};
  const std::vector<std::string> corpus = {to_json(cut), to_json_shard(cut, 2, 4),
                                           to_json_partial(cut, partial)};

  Mutator mutator(7);
  int accepted = 0;
  const auto check = [&](const std::string& text) {
    ShardInfo shard;
    IncompleteInfo incomplete;
    std::string error;
    const auto report = report_from_json(text, &shard, &error, &incomplete);
    if (!report.has_value()) {
      EXPECT_FALSE(error.empty());
      return;
    }
    ++accepted;
    const std::string again = reserialize(*report, shard, incomplete);
    JsonValue tree;
    ASSERT_TRUE(parse_json(again, tree)) << "accepted " << text << "\nwrote " << again;
    ShardInfo shard2;
    IncompleteInfo incomplete2;
    const auto reparsed = report_from_json(again, &shard2, &error, &incomplete2);
    ASSERT_TRUE(reparsed.has_value()) << error << "\nwrote " << again;
    EXPECT_EQ(reserialize(*reparsed, shard2, incomplete2), again);
  };
  for (int i = 0; i < 4000; ++i) check(mutator.mutate(corpus));
  for (int i = 0; i < 6; ++i) check(mutator.mutate({golden}));
  EXPECT_GT(accepted, 20) << "the mutations never produced a parsable report";
}

}  // namespace
}  // namespace pofl
