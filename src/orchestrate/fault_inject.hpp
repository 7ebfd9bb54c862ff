#pragma once

// Deterministic fault injection for shard workers, driven by the POFL_FAULT
// environment variable — the test harness that makes every recovery path of
// the ShardSupervisor exercisable from the outside:
//
//   POFL_FAULT=<mode>:<shard>:<attempt>[:<code>]
//
//   mode     crash    raise(SIGKILL) before the sweep runs (worker dies
//                     mid-run with no output)
//            hang     ignore SIGTERM and stall before the sweep — forces
//                     the supervisor through its timeout + SIGKILL
//                     escalation path
//            exit     _exit(<code>) before the sweep (default code 3)
//            corrupt  run the sweep normally, then cut the shard report
//                     to a torn prefix — a clean exit with invalid output,
//                     caught only by validation
//   shard    decimal shard index, or '*' for every shard
//   attempt  decimal attempt number, or '*' for every attempt; the current
//            attempt is read from POFL_FAULT_ATTEMPT, which the supervisor
//            sets on each spawn (0 when absent, so a bare worker run counts
//            as its own first attempt)
//
// `POFL_FAULT=crash:1:0` kills shard 1 on its first attempt only — the
// retry then succeeds and the merged sweep must be byte-identical to an
// uninterrupted run. `crash:1:*` defeats every retry, driving the
// retries-exhausted / --allow-partial paths. A malformed spec is a hard
// worker error (exit 2), never a silent no-op: a typo'd injection that
// quietly does nothing would fake the very coverage this hook exists for.

#include <optional>
#include <string>

namespace pofl {

enum class FaultMode { kNone, kCrash, kHang, kExit, kCorrupt };

struct FaultSpec {
  FaultMode mode = FaultMode::kNone;
  int shard = -1;    // -1 = any shard
  int attempt = -1;  // -1 = any attempt
  int exit_code = 3;

  [[nodiscard]] bool matches(int shard_index, int attempt_index) const {
    return mode != FaultMode::kNone && (shard < 0 || shard == shard_index) &&
           (attempt < 0 || attempt == attempt_index);
  }
};

/// Parses the POFL_FAULT spelling; nullopt on anything malformed (unknown
/// mode, non-numeric fields, a <code> on a mode other than exit).
[[nodiscard]] std::optional<FaultSpec> parse_fault_spec(const std::string& spec);

/// The worker-side hook: reads POFL_FAULT and POFL_FAULT_ATTEMPT once and
/// fires at the two injection points of the shard-worker path.
class FaultInjector {
 public:
  /// Builds the injector for this worker's shard index. `ok` is false when
  /// POFL_FAULT is set but malformed — the worker must error out loudly.
  static FaultInjector from_env(int shard_index, bool& ok);

  /// Injection point before the sweep runs: crash / hang / exit fire here.
  void before_sweep() const;

  /// Injection point on the finished shard report, before it is written:
  /// corrupt fires here, cutting the bytes so they no longer parse.
  void tear(std::string& report) const;

 private:
  bool armed_ = false;  // spec present and matching this shard + attempt
  FaultSpec spec_;
};

}  // namespace pofl
