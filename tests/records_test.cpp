// Byte-exact golden bytes for every serialised record.
//
// Each record type that crosses a process boundary (worker pipe,
// write-ahead journal, artifact cache, daemon socket) is built here with
// every field set to a non-default value, and its json() must equal the
// line checked in under tests/golden/records.txt; from_json() of those
// bytes must reproduce them exactly. A field dropped from a record's
// field list, a renamed key, a changed number format or escape, or a
// moved enum slug therefore fails here. The same file pins every enum's
// slugs, the artifact key, the batch fingerprint and the cache entry
// header (FNV-1a checksums included).
//
// Golden format: one "<name> <bytes>" line per sample; JSON escapes
// every newline, so a record is always one line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/breaker.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/fault.hpp"
#include "support/json.hpp"
#include "temp_util.hpp"

namespace cudanp {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

/// Every escape path of the writer: quote, backslash, \n \t \r, other
/// control bytes (\u00xx) and raw multi-byte UTF-8.
const std::string kTricky =
    "q\"uote \\back\nline\ttab\rret \x01\x1f ctl caf\xc3\xa9 \xe2\x86\x92 "
    "\xe6\x97\xa5\xe6\x9c\xac";

const std::string kSource =
    "__global__ void tmv(float* a, const float* b, int n) {\n"
    "  #pragma np parallel for reduction(+:sum)\n"
    "  for (int i = 0; i < n; ++i) a[i] = b[i] * \"2\";\n"
    "}\n";

np::VariantFailure failure(np::FailureCause cause, std::size_t hazards) {
  np::VariantFailure f;
  f.kernel = "tmv";
  f.config = "inter-warp slave_size=" + std::to_string(hazards);
  f.cause = cause;
  f.detail = "detail " + kTricky;
  f.hazard_count = hazards;
  return f;
}

np::FallbackDecision decision() {
  np::FallbackDecision d;
  d.kernel = "tm\"v";
  d.used_baseline = false;
  d.chosen_config = "intra-warp slave_size=4";
  d.first_choice = "inter-warp slave_size=8 " + kTricky;
  d.quarantined = {failure(np::FailureCause::kTransformError, 0),
                   failure(np::FailureCause::kProvenWrong, 7)};
  return d;
}

np::Certificate certificate(np::Verdict verdict) {
  np::Certificate c;
  c.kernel = "tmv";
  c.config = "inter-warp slave_size=2";
  c.verdict = verdict;
  c.detail = "normalized outputs differ " + kTricky;
  c.counterexample_seed = static_cast<std::uint64_t>(kMax);
  c.geometry = "grid 4x1x1 block 32x1x1";
  return c;
}

sim::FaultPlan fault_plan() {
  sim::FaultPlan p;
  p.seed = 0x0123456789abcdefULL;
  p.bit_flips = 7;
  p.sim_error_at_step = kMin;
  p.fault_block = -7;
  p.drop_barrier = true;
  p.skew_index = true;
  p.stall_block = 5;
  p.crash_at_step = kMax;
  p.oom_mb = 64;
  p.wedge_worker = true;
  p.corrupt_cache = true;
  p.tear_cache = true;
  p.corrupt_cert = true;
  p.tear_cert = true;
  return p;
}

serve::JobResult job_result(serve::JobState state, std::size_t index) {
  serve::JobResult r;
  r.index = index;
  r.name = "job " + kTricky;
  r.state = state;
  r.cause = "watchdog-trip";
  r.detail = "line 3: expected ';'\n" + kTricky;
  r.chosen_config = "baseline";
  r.breaker_key = "tmv|inter-warp slave_size=8";
  r.attempts = 2;
  r.crashed_attempts = -1;
  r.deadline_ms = kMax;
  r.virtual_ms = -5;
  r.deadline_exceeded = true;
  r.breaker_routed = true;
  r.quarantined = {failure(np::FailureCause::kWatchdogTrip, 1),
                   failure(np::FailureCause::kCrash, 2)};
  return r;
}

serve::BreakerSnapshot breaker(serve::BreakerState state, int n) {
  serve::BreakerSnapshot b;
  b.key = "tmv|inter-warp \"" + std::to_string(n) + "\"";
  b.state = state;
  b.opens = n;
  b.probes = n + 1;
  b.short_circuits = -n;
  return b;
}

serve::JobOutcome job_outcome() {
  serve::JobOutcome o;
  o.ran = true;
  o.success = true;
  o.rejected = true;
  o.reject_cause = "compile-error";
  o.reject_detail = kTricky;
  o.attempts = 3;
  o.crashed_attempts = 2;
  o.virtual_ms = kMax;
  o.deadline_exceeded = true;
  o.deadline_ms = -40;
  o.breaker_key = "tmv|baseline";
  o.decision = decision();
  return o;
}

serve::ServiceReport service_report() {
  serve::ServiceReport r;
  r.submitted = 1;
  r.accepted = 2;
  r.shed = 3;
  r.rejected_admission = 4;
  r.drained = 5;
  r.succeeded = 6;
  r.succeeded_after_retry = 7;
  r.degraded = 8;
  r.rejected_execution = 9;
  r.retries = 10;
  r.crashes = 11;
  r.resource_limited = 12;
  r.deadline_exceeded = 13;
  r.breaker_opens = 14;
  r.breaker_probes = 15;
  r.breaker_short_circuits = 16;
  r.virtual_ms = kMin;
  r.breakers = {breaker(serve::BreakerState::kOpen, 2),
                breaker(serve::BreakerState::kHalfOpen, 5)};
  r.jobs = {job_result(serve::JobState::kDegraded, 0),
            job_result(serve::JobState::kSucceededAfterRetry, 1)};
  return r;
}

serve::AttemptRequest attempt_request() {
  serve::AttemptRequest r;
  r.source = kSource;
  r.kernel = "tmv";
  r.elems = 64;
  r.tb = 128;
  r.device = "k20c";
  r.sm_version = 35;
  r.max_steps = std::int64_t{1} << 40;
  r.corrupt_ast = true;
  r.hook_faults = true;
  r.fault = fault_plan();
  r.error_limit = -3;
  r.portable_races = true;
  r.dedupe = false;
  r.f32_rel_tol = 2.5e-4;
  r.heartbeat_ms = 50;
  r.certify = true;
  r.certified_fast_path = true;
  r.certificates = {certificate(np::Verdict::kProven).json(),
                    certificate(np::Verdict::kRefuted).json()};
  return r;
}

serve::AttemptResult attempt_result() {
  serve::AttemptResult r;
  r.rejected = true;
  r.reject_cause = "no-kernel";
  r.reject_detail = kTricky;
  r.kernel_name = "tmv";
  r.decision = decision();
  return r;
}

std::vector<serve::JobSpec> batch() {
  serve::JobSpec a;
  a.name = "flaky";
  a.source = kSource;
  a.kernel = "tmv";
  a.elems = 16;
  a.tb = 8;
  a.deadline_ms = 50;
  a.max_attempts = 4;
  a.watchdog_steps = 1 << 20;
  a.inject = true;
  a.fault = fault_plan();
  a.transient_attempts = 1;
  serve::JobSpec b;
  b.source = kSource;
  return {a, b};
}

serve::ServiceOptions service_options() {
  serve::ServiceOptions o;
  o.queue_capacity = 8;
  o.default_deadline_ms = 500;
  o.min_feasible_ms = 2;
  o.steps_per_ms = 1024;
  o.attempt_cost_ms = 7;
  o.drain_before_job = 3;
  o.retry.max_attempts = 4;
  o.retry.base_backoff_ms = 5;
  o.retry.max_backoff_ms = 80;
  o.retry.jitter_ms = 3;
  o.retry.seed = 99;
  o.breaker.failure_threshold = 2;
  o.breaker.cooldown_ms = 150;
  o.sanitizer.error_limit = 17;
  o.sanitizer.race_mode = sim::SanitizerEngine::RaceMode::kPortable;
  o.sanitizer.dedupe = false;
  o.f32_rel_tol = 2.5e-4;
  o.isolate = serve::IsolationMode::kProcess;
  o.worker_mem_mb = 256;
  o.certify = true;
  o.certified_fast_path = true;
  return o;
}

/// The header line the artifact cache persists for a fixed entry: pins
/// the entry checksum.
std::string cache_header() {
  test::ScopedTempDir dir("records_cache");
  {
    serve::ArtifactCache cache({.max_entries = 4, .dir = dir.path()});
    cache.store("00ff00ff00ff00ff", kTricky);
  }
  std::ifstream in(dir.file("00ff00ff00ff00ff.art"), std::ios::binary);
  std::string header;
  std::getline(in, header);
  return header;
}

/// One golden line. `bytes` renders it; `reread` runs those bytes back
/// through the type's reader and re-serialises them (null where there
/// is no reader).
struct Sample {
  std::string name;
  std::function<std::string()> bytes;
  std::function<std::optional<std::string>(std::string_view)> reread;
};

template <class T>
Sample record(std::string name, T (*make)()) {
  return {std::move(name), [make] { return make().json(); },
          [](std::string_view text) -> std::optional<std::string> {
            auto back = T::from_json(text);
            if (!back) return std::nullopt;
            if constexpr (requires { T::from_json_value(json::Value{}); }) {
              // The nested-record entry point must agree with from_json.
              auto v = json::parse(text);
              auto again = v ? T::from_json_value(*v) : std::nullopt;
              if (!again || again->json() != back->json())
                return std::nullopt;
            }
            return back->json();
          }};
}

/// Every slug of an enum with `count` enumerators, in declaration order;
/// the reader maps each back and must reject anything else.
template <class E>
Sample slugs(std::string name, int count,
             std::optional<E> (*parse)(std::string_view)) {
  auto bytes = [count] {
    std::string out;
    for (int i = 0; i < count; ++i)
      out += std::string(i ? " " : "") + to_string(static_cast<E>(i));
    return out;
  };
  return {std::move(name), bytes,
          [count, parse](std::string_view text) -> std::optional<std::string> {
            if (std::string_view(to_string(static_cast<E>(count))) !=
                    "unknown" ||
                parse("unknown") || parse(""))
              return std::nullopt;
            std::string out;
            std::istringstream in{std::string(text)};
            std::string slug;
            for (int i = 0; in >> slug; ++i) {
              auto e = parse(slug);
              if (!e || static_cast<int>(*e) != i) return std::nullopt;
              out += std::string(i ? " " : "") + to_string(*e);
            }
            return out;
          }};
}

std::vector<Sample> samples() {
  return {
      record("VariantFailure", +[] {
        return failure(np::FailureCause::kHazards, 3);
      }),
      record("FallbackDecision", decision),
      record("Certificate",
             +[] { return certificate(np::Verdict::kRefuted); }),
      record("FaultPlan", fault_plan),
      record("JobResult", +[] {
        return job_result(serve::JobState::kSucceededAfterRetry, 42);
      }),
      record("BreakerSnapshot",
             +[] { return breaker(serve::BreakerState::kHalfOpen, 4); }),
      record("JobOutcome", job_outcome),
      record("ServiceReport", service_report),
      record("AttemptRequest", attempt_request),
      record("AttemptResult", attempt_result),
      record("SubmitRequest", +[] {
        return serve::SubmitRequest{"tenant " + kTricky, kSource,
                                    "/srv/m\"x"};
      }),
      record("SubmitReply", +[] {
        return serve::SubmitReply{service_report().str(),
                                  service_report().json()};
      }),
      record("RejectReply",
             +[] { return serve::RejectReply{"tenant-quota", kTricky}; }),
      slugs<np::FailureCause>("FailureCause", 9,
                              np::failure_cause_from_string),
      slugs<np::Verdict>("Verdict", 4, np::verdict_from_string),
      slugs<serve::JobState>("JobState", 4, serve::job_state_from_string),
      slugs<serve::IsolationMode>("IsolationMode", 2,
                                  serve::isolation_mode_from_string),
      slugs<serve::BreakerState>("BreakerState", 3,
                                 serve::breaker_state_from_string),
      {"artifact_key",
       [] { return np::NpCompiler::artifact_key(kSource, kTricky); },
       {}},
      {"batch_fingerprint",
       [] { return serve::batch_fingerprint(batch(), service_options()); },
       {}},
      {"cache_header", cache_header, {}},
  };
}

const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> m;
    std::ifstream in(CUDANP_RECORDS_GOLDEN, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      std::size_t sp = line.find(' ');
      if (sp != std::string::npos) m[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return m;
  }();
  return lines;
}

class RoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTrip, BytesMatchGoldenAndReadBack) {
  for (const Sample& s : samples()) {
    if (s.name != GetParam()) continue;
    auto it = golden().find(s.name);
    ASSERT_NE(it, golden().end()) << "no golden line for " << s.name;
    EXPECT_EQ(s.bytes(), it->second);
    if (s.reread) {
      auto back = s.reread(it->second);
      ASSERT_TRUE(back.has_value()) << s.name << " failed to read back";
      EXPECT_EQ(*back, it->second);
    }
    return;
  }
  FAIL() << "no sample named " << GetParam();
}

std::vector<std::string> sample_names() {
  std::vector<std::string> names;
  for (const Sample& s : samples()) names.push_back(s.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Records, RoundTrip, ::testing::ValuesIn(sample_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(RoundTripGolden, EveryLineHasASample) {
  auto names = sample_names();
  for (const auto& [name, bytes] : golden())
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "golden line without a sample: " << name;
  EXPECT_EQ(golden().size(), names.size());
}

}  // namespace
}  // namespace cudanp
