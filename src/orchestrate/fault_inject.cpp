#include "orchestrate/fault_inject.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace pofl {

namespace {

/// Parses one `<int>` or `'*'` field; -1 encodes the wildcard.
bool parse_field(const std::string& field, int& out) {
  if (field == "*") {
    out = -1;
    return true;
  }
  if (field.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0' || errno == ERANGE || v < 0 || v > 1'000'000) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace

std::optional<FaultSpec> parse_fault_spec(const std::string& spec) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t colon = spec.find(':', start);
    fields.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() < 3 || fields.size() > 4) return std::nullopt;

  FaultSpec out;
  if (fields[0] == "crash") {
    out.mode = FaultMode::kCrash;
  } else if (fields[0] == "hang") {
    out.mode = FaultMode::kHang;
  } else if (fields[0] == "exit") {
    out.mode = FaultMode::kExit;
  } else if (fields[0] == "corrupt") {
    out.mode = FaultMode::kCorrupt;
  } else {
    return std::nullopt;
  }
  if (!parse_field(fields[1], out.shard) || !parse_field(fields[2], out.attempt)) {
    return std::nullopt;
  }
  if (fields.size() == 4) {
    // The optional 4th field is the exit status, meaningful for exit only.
    if (out.mode != FaultMode::kExit) return std::nullopt;
    if (!parse_field(fields[3], out.exit_code) || out.exit_code < 0 || out.exit_code > 255) {
      return std::nullopt;
    }
  }
  return out;
}

FaultInjector FaultInjector::from_env(int shard_index, bool& ok) {
  FaultInjector injector;
  ok = true;
  const char* spec_env = std::getenv("POFL_FAULT");
  if (spec_env == nullptr || *spec_env == '\0') return injector;
  const auto spec = parse_fault_spec(spec_env);
  if (!spec.has_value()) {
    ok = false;
    return injector;
  }
  int attempt = 0;
  if (const char* attempt_env = std::getenv("POFL_FAULT_ATTEMPT"); attempt_env != nullptr) {
    // A malformed attempt number can only come from a buggy supervisor;
    // treat it like a malformed spec rather than guessing.
    if (!parse_field(attempt_env, attempt) || attempt < 0) {
      ok = false;
      return injector;
    }
  }
  injector.spec_ = *spec;
  injector.armed_ = spec->matches(shard_index, attempt);
  return injector;
}

void FaultInjector::before_sweep() const {
  if (!armed_) return;
  switch (spec_.mode) {
    case FaultMode::kCrash:
      // SIGKILL, not abort(): no handlers, no unwinding, no output — the
      // closest stand-in for an OOM kill or a machine losing power.
      raise(SIGKILL);
      break;
    case FaultMode::kHang:
      // Ignore the supervisor's polite SIGTERM so the escalation to
      // SIGKILL is exercised too. Bounded so a hung worker without any
      // supervisor (someone exporting POFL_FAULT into a bare run) does
      // not wedge a terminal forever.
      signal(SIGTERM, SIG_IGN);
      sleep(300);
      _exit(3);
    case FaultMode::kExit:
      _exit(spec_.exit_code);
    case FaultMode::kNone:
    case FaultMode::kCorrupt:
      break;
  }
}

void FaultInjector::tear(std::string& report) const {
  if (!armed_ || spec_.mode != FaultMode::kCorrupt) return;
  // Cut mid-document: the classic torn write of a worker killed during its
  // final flush. The prefix is syntactically invalid JSON, so validation
  // must catch it and report the failure offset.
  report = report.size() > 1 ? report.substr(0, report.size() / 2) : "{";
}

}  // namespace pofl
