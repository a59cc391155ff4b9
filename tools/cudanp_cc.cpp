// cudanp-cc: the CUDA-NP source-to-source compiler as a command-line
// tool, mirroring how the paper's Cetus-based compiler is driven.
//
//   cudanp-cc input.cu [options]
//
//   --kernel=<name>       kernel to transform (default: first with pragmas)
//   --tb=<n>              baseline thread-block size (default 32)
//   --slave-size=<n>      slaves per master incl. master (default 4)
//   --np-type=inter|intra warp mapping (default inter)
//   --placement=auto|register|shared|global   local-array re-homing
//   --sm=<n>              target compute capability x10 (default 30)
//   --pad                 pad constant loop counts to slave_size multiples
//   --no-shfl             use shared memory even intra-warp (Fig. 16)
//   --all                 emit every auto-tuner candidate configuration
//   --report              print resource/occupancy report instead of code
//   --preprocess          run the Sec. 3.7 preprocessors (re-roll unrolled
//                         statement runs) before transforming
//   --sanitize            guarded execution: run baseline + every candidate
//                         variant on the simulator under the sanitizer and
//                         cross-check outputs (see docs/sanitizer.md)
//   --error-limit=<n>     stop sanitizing after n distinct hazards (0 = no
//                         limit, default 100)
//   --elems=<n>           synthetic workload problem size for --sanitize
//                         (default 64)
//   --portable-races      flag races that only block-lockstep execution
//                         order hides (compute-sanitizer-style racecheck)
//   --jobs=<n>            host threads simulating thread blocks (default:
//                         CUDANP_JOBS env var, else hardware concurrency;
//                         results are identical at every job count)
//   --watchdog-steps=<n>  per-block interpreted-statement budget before the
//                         execution watchdog cancels a launch (0 = auto:
//                         CUDANP_MAX_STEPS env var, else 2^26; negative
//                         disables the watchdog; see docs/robustness.md)
//   --certify             symbolic equivalence certification (the third
//                         validation leg; see docs/robustness.md
//                         "Certification"): prove every candidate
//                         variant equivalent to the baseline, refute it
//                         with a replayable counterexample, or fall back
//                         to the empirical checks. Refuted variants are
//                         quarantined as proven-wrong (exit 11 when one
//                         is found)
//   --certified-fast-path certified serving (implies --certify): proven
//                         variants skip the per-run sanitized
//                         cross-check and run unguarded for raw speed
//                         (the watchdog still applies)
//   --fallback=baseline   graceful degradation: pick the best candidate
//                         variant that survives the sanitizer + watchdog +
//                         output cross-check, falling back to the baseline
//                         kernel when every candidate is quarantined. The
//                         chosen kernel is always printed; the structured
//                         failure report (JSON) goes to stderr.
//   --batch=<manifest>    resilient batch serving: run every job in the
//                         manifest (one kernel+workload per line; see
//                         src/serve/manifest.hpp) through admission
//                         control, deadlines, retry/backoff and circuit
//                         breakers. The ServiceReport goes to the output
//                         stream (human) and stderr (JSON).
//   --queue-cap=<n>       batch admission queue capacity (default 256)
//   --deadline-ms=<n>     default per-job virtual deadline (batch mode)
//   --retries=<n>         max attempts per job incl. the first (batch)
//   --isolate=none|process  batch crash isolation: "process" runs every
//                         attempt in a sandboxed worker subprocess, so a
//                         natively crashing or wedged job degrades instead
//                         of killing the batch (default none)
//   --worker-mem-mb=<n>   RLIMIT_AS cap per worker in MiB; overruns become
//                         the breaker-eligible "resource-limit" cause
//   --worker-timeout-ms=<n>  supervisor read timeout: a worker that sends
//                         neither heartbeat nor result for this long (real
//                         ms) is declared wedged and killed (default 10000)
//   --heartbeat-ms=<n>    worker heartbeat interval (real ms, default 200).
//                         Validated at parse time against the read timeout:
//                         2 * heartbeat must fit inside --worker-timeout-ms,
//                         otherwise a healthy-but-slow worker would be
//                         declared wedged between beats (usage error)
//   --journal=<file>      write-ahead commit journal: append every job's
//                         outcome durably before it commits, so a killed
//                         batch can be finished with --resume
//   --resume              replay completed jobs from --journal and execute
//                         only the remainder; the final report is
//                         byte-identical to an uninterrupted run
//   --commit-chunk=<n>    jobs executed per execute->journal->commit round
//                         when journaling (bounds how much work a kill can
//                         lose; cannot affect the report; default 16)
//   --worker              (internal) run as an execution worker: serve
//                         attempt frames on stdin/stdout until EOF
//   -o <file>             write output to file (default stdout)
//
// Persistent serving (see docs/robustness.md "Persistent serving"):
//
//   --serve=<socket>      run as a long-lived daemon on an AF_UNIX stream
//                         socket, driving each submitted manifest through
//                         the batch pipeline. Batch flags (--elems, --tb,
//                         --deadline-ms, --retries, --isolate, ...) set the
//                         daemon-wide defaults. SIGTERM/SIGINT begins a
//                         graceful drain; the daemon exits 0 once admitted
//                         requests finished
//   --tenant-quota=<n>    max requests one tenant may have queued+running
//                         (default 4; excess is shed with "tenant-quota")
//   --max-pending=<n>     global pending-request bound (default 64)
//   --drr-quantum=<n>     deficit-round-robin credit per tenant visit, in
//                         jobs (default 8)
//   --session-idle-ms=<n> a client silent this long is reaped (default
//                         30000)
//   --cache-entries=<n>   compile/certificate cache capacity, for --batch
//                         and --serve (default 256; 0 disables)
//   --cache-dir=<dir>     persist cache entries across runs and restarts
//                         (entries are checksummed; torn/corrupt ones
//                         quarantined)
//   --journal-dir=<dir>   journal each request as req-<fingerprint>.journal
//                         with resume-if-present, making restart idempotent
//   --shared-breakers     share circuit breakers across tenants (off by
//                         default: sharing trades the strict per-client
//                         determinism contract for cross-tenant protection)
//
//   --connect=<socket>    client mode: submit --batch=<manifest> to the
//                         daemon (output identical to a local --batch run)
//   --tenant=<name>       tenant attribution for --connect (default
//                         "default")
//   --status / --healthz  query the daemon's counters / liveness (JSON)
//   --shutdown            ask the daemon to begin a graceful drain
//
// Exit status: 0 on success, 1 on usage errors, 2 on compile errors,
// 3 when --sanitize found hazards or an output mismatch, 4 on simulation
// errors, 5 on internal errors, 6 when --fallback degraded (a candidate
// was quarantined or the baseline was used) or the watchdog cancelled an
// unsanitized run — the output is still a runnable answer, 7 when a
// --batch run completed but not every job succeeded (some jobs were
// degraded to the baseline, shed, drained, or rejected; every job still
// reached a terminal state), 8 when a --batch run completed but only by
// surviving worker crashes or resource-limit kills under
// --isolate=process (crashed-but-completed; takes precedence over 7),
// 9 when --resume was given a journal written for a different batch or
// different options (no report is produced), 10 when a daemon refused a
// --connect request with a structured reject (tenant-quota / queue-full /
// draining / bad-manifest — the request never entered the pipeline),
// 11 when --certify refuted a candidate variant (a replayable
// counterexample proves it diverges from the baseline; takes precedence
// over 3 and 6 — the strongest possible evidence of a transform bug).
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/resources.hpp"
#include "ir/printer.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"
#include "sim/exec_pool.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"
#include "transform/preprocess.hpp"

using namespace cudanp;

namespace {

struct CliOptions {
  std::string input;
  std::string output;
  std::string kernel;
  int tb = 32;
  int slave_size = 4;
  ir::NpType np_type = ir::NpType::kInterWarp;
  transform::LocalPlacement placement = transform::LocalPlacement::kAuto;
  int sm = 30;
  bool pad = false;
  bool no_shfl = false;
  bool all = false;
  bool report = false;
  bool preprocess = false;
  bool sanitize = false;
  bool certify = false;
  bool certified_fast_path = false;
  int error_limit = 100;
  int elems = 64;
  bool portable_races = false;
  int jobs = 0;  // 0 = auto (CUDANP_JOBS env var, else hardware concurrency)
  // 0 = auto (CUDANP_MAX_STEPS env var, else the interpreter default);
  // negative disables the watchdog entirely.
  long long watchdog_steps = 0;
  bool fallback = false;  // --fallback=baseline graceful degradation
  std::string batch;      // --batch=<manifest> resilient batch serving
  int queue_cap = 256;
  long long deadline_ms = 0;  // 0 = service default
  int retries = 0;            // 0 = retry policy default
  serve::IsolationMode isolate = serve::IsolationMode::kNone;
  long long worker_mem_mb = 0;      // 0 = uncapped
  int worker_timeout_ms = 10000;    // supervisor read timeout (real ms)
  std::string journal;          // --journal=<file> write-ahead journal
  bool resume = false;          // --resume a killed --journal batch
  int commit_chunk = 16;        // execute->journal->commit round size
  bool worker = false;          // --worker: internal execution-worker mode
  int heartbeat_ms = 200;       // worker heartbeat interval (real ms)

  // Persistent serving.
  std::string serve_socket;     // --serve=<socket>: daemon mode
  std::string connect_socket;   // --connect=<socket>: client mode
  std::string tenant;           // --tenant=<name> (client attribution)
  bool status = false;          // --status: query daemon counters
  bool healthz = false;         // --healthz: query daemon liveness
  bool shutdown = false;        // --shutdown: begin a graceful drain
  int tenant_quota = 4;
  int max_pending = 64;
  int drr_quantum = 8;
  int session_idle_ms = 30000;
  int cache_entries = 256;
  std::string cache_dir;
  std::string journal_dir;
  bool shared_breakers = false;
};

void usage() {
  std::cerr
      << "usage: cudanp-cc <input.cu> [--kernel=<name>] [--tb=<n>]\n"
         "                 [--slave-size=<n>] [--np-type=inter|intra]\n"
         "                 [--placement=auto|register|shared|global]\n"
         "                 [--sm=<n>] [--pad] [--no-shfl] [--all]\n"
         "                 [--report] [--preprocess] [-o <file>]\n"
         "                 [--sanitize] [--error-limit=<n>] [--elems=<n>]\n"
         "                 [--portable-races] [--jobs=<n>]\n"
         "                 [--watchdog-steps=<n>] [--fallback=baseline]\n"
         "                 [--certify] [--certified-fast-path]\n"
         "       cudanp-cc --batch=<manifest> [--jobs=<n>]\n"
         "                 [--queue-cap=<n>] [--deadline-ms=<n>]\n"
         "                 [--retries=<n>] [--elems=<n>] [--tb=<n>]\n"
         "                 [--watchdog-steps=<n>] [--isolate=none|process]\n"
         "                 [--worker-mem-mb=<n>] [--worker-timeout-ms=<n>]\n"
         "                 [--journal=<file>] [--resume]\n"
         "                 [--commit-chunk=<n>] [--heartbeat-ms=<n>]\n"
         "                 [--certify] [--certified-fast-path]\n"
         "                 [--cache-entries=<n>] [--cache-dir=<dir>]\n"
         "                 [-o <file>]\n"
         "       cudanp-cc --serve=<socket> [batch flags]\n"
         "                 [--tenant-quota=<n>] [--max-pending=<n>]\n"
         "                 [--drr-quantum=<n>] [--session-idle-ms=<n>]\n"
         "                 [--cache-entries=<n>] [--cache-dir=<dir>]\n"
         "                 [--journal-dir=<dir>] [--shared-breakers]\n"
         "       cudanp-cc --connect=<socket> --batch=<manifest>\n"
         "                 [--tenant=<name>] [-o <file>]\n"
         "       cudanp-cc --connect=<socket> --status|--healthz|--shutdown\n";
}

/// Checked numeric flag: "--tb=32x", "--tb=", and out-of-range values
/// are usage errors instead of silently atoi-ing to 0 or a prefix.
bool parse_flag_i64(const char* flag, const char* text, long long min,
                    long long max, long long* out) {
  auto v = parse_i64(text, min, max);
  if (!v) {
    std::cerr << "cudanp-cc: bad value for " << flag << ": '" << text
              << "' (expected integer in [" << min << ", " << max << "])\n";
    return false;
  }
  *out = *v;
  return true;
}

bool parse_flag_int(const char* flag, const char* text, int min, int max,
                    int* out) {
  long long v = 0;
  if (!parse_flag_i64(flag, text, min, max, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return a.c_str() + std::strlen(prefix);
    };
    if (a.rfind("--kernel=", 0) == 0) {
      opt.kernel = value("--kernel=");
    } else if (a.rfind("--tb=", 0) == 0) {
      if (!parse_flag_int("--tb", value("--tb="), 1, 1024, &opt.tb))
        return std::nullopt;
    } else if (a.rfind("--slave-size=", 0) == 0) {
      if (!parse_flag_int("--slave-size", value("--slave-size="), 1, 1024,
                          &opt.slave_size))
        return std::nullopt;
    } else if (a.rfind("--np-type=", 0) == 0) {
      std::string v = value("--np-type=");
      if (v == "inter") opt.np_type = ir::NpType::kInterWarp;
      else if (v == "intra") opt.np_type = ir::NpType::kIntraWarp;
      else return std::nullopt;
    } else if (a.rfind("--placement=", 0) == 0) {
      std::string v = value("--placement=");
      if (v == "auto") opt.placement = transform::LocalPlacement::kAuto;
      else if (v == "register")
        opt.placement = transform::LocalPlacement::kRegister;
      else if (v == "shared")
        opt.placement = transform::LocalPlacement::kShared;
      else if (v == "global")
        opt.placement = transform::LocalPlacement::kGlobal;
      else return std::nullopt;
    } else if (a.rfind("--sm=", 0) == 0) {
      if (!parse_flag_int("--sm", value("--sm="), 10, 999, &opt.sm))
        return std::nullopt;
    } else if (a == "--pad") {
      opt.pad = true;
    } else if (a == "--no-shfl") {
      opt.no_shfl = true;
    } else if (a == "--all") {
      opt.all = true;
    } else if (a == "--report") {
      opt.report = true;
    } else if (a == "--preprocess") {
      opt.preprocess = true;
    } else if (a == "--sanitize") {
      opt.sanitize = true;
    } else if (a == "--certify") {
      opt.certify = true;
    } else if (a == "--certified-fast-path") {
      opt.certify = true;
      opt.certified_fast_path = true;
    } else if (a.rfind("--error-limit=", 0) == 0) {
      if (!parse_flag_int("--error-limit", value("--error-limit="), 0,
                          1 << 30, &opt.error_limit))
        return std::nullopt;
    } else if (a.rfind("--elems=", 0) == 0) {
      if (!parse_flag_int("--elems", value("--elems="), 1, 1 << 20,
                          &opt.elems))
        return std::nullopt;
    } else if (a == "--portable-races") {
      opt.portable_races = true;
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!parse_flag_int("--jobs", value("--jobs="), 1,
                          sim::ExecPool::kMaxWorkers, &opt.jobs))
        return std::nullopt;
    } else if (a.rfind("--watchdog-steps=", 0) == 0) {
      if (!parse_flag_i64("--watchdog-steps", value("--watchdog-steps="),
                          std::numeric_limits<long long>::min(),
                          std::numeric_limits<long long>::max(),
                          &opt.watchdog_steps))
        return std::nullopt;
    } else if (a.rfind("--batch=", 0) == 0) {
      opt.batch = value("--batch=");
      if (opt.batch.empty()) return std::nullopt;
    } else if (a.rfind("--queue-cap=", 0) == 0) {
      if (!parse_flag_int("--queue-cap", value("--queue-cap="), 1, 1 << 20,
                          &opt.queue_cap))
        return std::nullopt;
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      if (!parse_flag_i64("--deadline-ms", value("--deadline-ms="), 1,
                          std::numeric_limits<long long>::max() / 2,
                          &opt.deadline_ms))
        return std::nullopt;
    } else if (a.rfind("--retries=", 0) == 0) {
      if (!parse_flag_int("--retries", value("--retries="), 1, 1000,
                          &opt.retries))
        return std::nullopt;
    } else if (a.rfind("--isolate=", 0) == 0) {
      auto mode = serve::isolation_mode_from_string(value("--isolate="));
      if (!mode) {
        std::cerr << "cudanp-cc: bad value for --isolate: '"
                  << value("--isolate=") << "' (expected none|process)\n";
        return std::nullopt;
      }
      opt.isolate = *mode;
    } else if (a.rfind("--worker-mem-mb=", 0) == 0) {
      if (!parse_flag_i64("--worker-mem-mb", value("--worker-mem-mb="), 1,
                          1LL << 20, &opt.worker_mem_mb))
        return std::nullopt;
    } else if (a.rfind("--worker-timeout-ms=", 0) == 0) {
      if (!parse_flag_int("--worker-timeout-ms",
                          value("--worker-timeout-ms="), 1, 1 << 30,
                          &opt.worker_timeout_ms))
        return std::nullopt;
    } else if (a.rfind("--journal=", 0) == 0) {
      opt.journal = value("--journal=");
      if (opt.journal.empty()) return std::nullopt;
    } else if (a == "--resume") {
      opt.resume = true;
    } else if (a.rfind("--commit-chunk=", 0) == 0) {
      if (!parse_flag_int("--commit-chunk", value("--commit-chunk="), 1,
                          1 << 20, &opt.commit_chunk))
        return std::nullopt;
    } else if (a == "--worker") {
      opt.worker = true;
    } else if (a.rfind("--heartbeat-ms=", 0) == 0) {
      if (!parse_flag_int("--heartbeat-ms", value("--heartbeat-ms="), 1,
                          1 << 30, &opt.heartbeat_ms))
        return std::nullopt;
    } else if (a.rfind("--serve=", 0) == 0) {
      opt.serve_socket = value("--serve=");
      if (opt.serve_socket.empty()) return std::nullopt;
    } else if (a.rfind("--connect=", 0) == 0) {
      opt.connect_socket = value("--connect=");
      if (opt.connect_socket.empty()) return std::nullopt;
    } else if (a.rfind("--tenant=", 0) == 0) {
      opt.tenant = value("--tenant=");
    } else if (a == "--status") {
      opt.status = true;
    } else if (a == "--healthz") {
      opt.healthz = true;
    } else if (a == "--shutdown") {
      opt.shutdown = true;
    } else if (a.rfind("--tenant-quota=", 0) == 0) {
      if (!parse_flag_int("--tenant-quota", value("--tenant-quota="), 1,
                          1 << 20, &opt.tenant_quota))
        return std::nullopt;
    } else if (a.rfind("--max-pending=", 0) == 0) {
      if (!parse_flag_int("--max-pending", value("--max-pending="), 1,
                          1 << 20, &opt.max_pending))
        return std::nullopt;
    } else if (a.rfind("--drr-quantum=", 0) == 0) {
      if (!parse_flag_int("--drr-quantum", value("--drr-quantum="), 1,
                          1 << 20, &opt.drr_quantum))
        return std::nullopt;
    } else if (a.rfind("--session-idle-ms=", 0) == 0) {
      if (!parse_flag_int("--session-idle-ms",
                          value("--session-idle-ms="), 1, 1 << 30,
                          &opt.session_idle_ms))
        return std::nullopt;
    } else if (a.rfind("--cache-entries=", 0) == 0) {
      if (!parse_flag_int("--cache-entries", value("--cache-entries="), 0,
                          1 << 20, &opt.cache_entries))
        return std::nullopt;
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opt.cache_dir = value("--cache-dir=");
      if (opt.cache_dir.empty()) return std::nullopt;
    } else if (a.rfind("--journal-dir=", 0) == 0) {
      opt.journal_dir = value("--journal-dir=");
      if (opt.journal_dir.empty()) return std::nullopt;
    } else if (a == "--shared-breakers") {
      opt.shared_breakers = true;
    } else if (a.rfind("--fallback=", 0) == 0) {
      std::string v = value("--fallback=");
      if (v != "baseline") return std::nullopt;
      opt.fallback = true;
    } else if (a == "-o") {
      if (++i >= argc) return std::nullopt;
      opt.output = argv[i];
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown option: " << a << "\n";
      return std::nullopt;
    } else if (opt.input.empty()) {
      opt.input = a;
    } else {
      return std::nullopt;
    }
  }
  // The heartbeat must fit (twice) inside the supervisor's read
  // timeout, or a healthy worker would be declared wedged between
  // beats. Caught at parse time with a structured message, not at the
  // first spurious kill.
  if (2LL * opt.heartbeat_ms > opt.worker_timeout_ms) {
    std::cerr << "cudanp-cc: --heartbeat-ms=" << opt.heartbeat_ms
              << " must satisfy 2*heartbeat <= --worker-timeout-ms="
              << opt.worker_timeout_ms
              << " (a healthy worker would be declared wedged between "
                 "beats)\n";
    return std::nullopt;
  }
  // Worker mode serves frames on stdin/stdout; batch mode takes its
  // inputs from the manifest; every other mode needs exactly one source
  // file.
  if (opt.worker) {
    if (!opt.input.empty() || !opt.batch.empty()) return std::nullopt;
    return opt;
  }
  if (!opt.serve_socket.empty()) {
    if (!opt.input.empty() || !opt.batch.empty() ||
        !opt.connect_socket.empty())
      return std::nullopt;
    return opt;
  }
  if (opt.status || opt.healthz || opt.shutdown) {
    if (opt.connect_socket.empty()) {
      std::cerr << "cudanp-cc: --status/--healthz/--shutdown require "
                   "--connect=<socket>\n";
      return std::nullopt;
    }
    if (!opt.input.empty() || !opt.batch.empty()) return std::nullopt;
    return opt;
  }
  if (!opt.connect_socket.empty()) {
    if (opt.batch.empty() || !opt.input.empty()) {
      std::cerr << "cudanp-cc: --connect requires --batch=<manifest> "
                   "(or --status/--healthz/--shutdown)\n";
      return std::nullopt;
    }
    return opt;
  }
  if (opt.resume && opt.journal.empty()) {
    std::cerr << "cudanp-cc: --resume requires --journal=<file>\n";
    return std::nullopt;
  }
  if (opt.batch.empty() && opt.input.empty()) return std::nullopt;
  if (!opt.batch.empty() && !opt.input.empty()) return std::nullopt;
  return opt;
}

void print_report(std::ostream& os, const ir::Kernel& kernel,
                  const transform::TransformResult* variant,
                  const sim::DeviceSpec& spec, int threads_per_block) {
  const ir::Kernel& k = variant ? *variant->kernel : kernel;
  auto res = analysis::estimate_resources(k, spec);
  auto occ = sim::compute_occupancy(spec, threads_per_block, res.usage);
  os << "kernel " << k.name << ":\n"
     << "  threads/block:   " << threads_per_block << "\n"
     << "  registers:       ~" << res.usage.registers_per_thread
     << " per thread (raw estimate " << res.estimated_registers_raw << ")\n"
     << "  shared memory:   " << res.usage.shared_mem_per_block
     << " B per block\n"
     << "  local memory:    " << res.usage.local_mem_per_thread
     << " B per thread\n"
     << "  occupancy:       " << occ.blocks_per_smx << " blocks ("
     << occ.active_warps << " warps) per SMX, " << occ.limiting_factor
     << "-limited\n";
  if (variant) {
    for (const auto& [arr, placement] : variant->placements)
      os << "  local array:     " << arr << " -> "
         << transform::to_string(placement) << "\n";
    for (const auto& extra : variant->extra_buffers)
      os << "  extra buffer:    " << extra.param_name << " ("
         << extra.elems_per_block << " elems per block)\n";
  }
}

}  // namespace

/// --batch mode: load the manifest, run every job through the resilient
/// batch service, and report. Exit 0 only when every job succeeded
/// outright; 7 when the batch completed but some jobs retried into
/// success is still 0 — only degraded/rejected/shed outcomes flip to 7;
/// 8 (precedence over 7) when completion required surviving worker
/// crashes or resource-limit kills under --isolate=process.
serve::ManifestDefaults manifest_defaults_from_cli(const CliOptions& opt) {
  serve::ManifestDefaults defaults;
  defaults.elems = opt.elems;
  defaults.tb = opt.tb;
  defaults.deadline_ms = opt.deadline_ms;
  defaults.max_attempts = opt.retries;
  defaults.watchdog_steps = opt.watchdog_steps;
  return defaults;
}

/// Batch flags -> ServiceOptions; shared by --batch and --serve (the
/// daemon's service template), so the two modes run identical pipelines.
serve::ServiceOptions service_options_from_cli(const CliOptions& opt) {
  serve::ServiceOptions sopts;
  sopts.queue_capacity = opt.queue_cap;
  sopts.jobs = opt.jobs;
  if (opt.deadline_ms > 0) sopts.default_deadline_ms = opt.deadline_ms;
  if (opt.retries > 0) sopts.retry.max_attempts = opt.retries;
  sopts.sanitizer.error_limit = static_cast<std::size_t>(opt.error_limit);
  sopts.sanitizer.race_mode = opt.portable_races
                                  ? sim::SanitizerEngine::RaceMode::kPortable
                                  : sim::SanitizerEngine::RaceMode::kLockstep;
  sopts.isolate = opt.isolate;
  sopts.worker_mem_mb = opt.worker_mem_mb;
  sopts.worker_read_timeout_ms = opt.worker_timeout_ms;
  sopts.worker_heartbeat_ms = opt.heartbeat_ms;
  sopts.commit_chunk = opt.commit_chunk;
  sopts.certify = opt.certify;
  sopts.certified_fast_path = opt.certified_fast_path;
  return sopts;
}

int run_batch(const CliOptions& opt, std::ostream& os) {
  serve::ManifestDefaults defaults = manifest_defaults_from_cli(opt);

  std::string error;
  std::vector<serve::JobSpec> jobs =
      serve::load_manifest(opt.batch, defaults, &error);
  if (jobs.empty()) {
    std::cerr << "cudanp-cc: " << opt.batch << ": "
              << (error.empty() ? "empty manifest" : error) << "\n";
    return 1;
  }

  serve::ServiceOptions sopts = service_options_from_cli(opt);
  sopts.journal_path = opt.journal;
  sopts.resume = opt.resume;
  // The daemon's cache: identical jobs in one batch, and with
  // --cache-dir across runs, share one compile and one certificate.
  const std::unique_ptr<serve::ArtifactCache> cache =
      serve::make_artifact_cache(opt.cache_entries, opt.cache_dir);
  sopts.artifact_cache = cache.get();

  auto spec = sim::DeviceSpec::gtx680();
  spec.sm_version = opt.sm;
  serve::BatchService service(spec, sopts);
  serve::ServiceReport report = service.run(jobs);
  os << report.str();
  std::cerr << report.json() << "\n";
  // Crashed-but-completed takes precedence: the batch finished, but only
  // because the sandbox absorbed worker deaths.
  if (report.crashes > 0 || report.resource_limited > 0) return 8;
  return report.all_succeeded() ? 0 : 7;
}

/// --serve mode: run the persistent daemon until a graceful drain.
int run_serve(const CliOptions& opt) {
  serve::DaemonOptions dopt;
  dopt.socket_path = opt.serve_socket;
  dopt.service = service_options_from_cli(opt);
  dopt.defaults = manifest_defaults_from_cli(opt);
  dopt.spec = sim::DeviceSpec::gtx680();
  dopt.spec.sm_version = opt.sm;
  dopt.tenant_quota = opt.tenant_quota;
  dopt.max_pending = opt.max_pending;
  dopt.drr_quantum = opt.drr_quantum;
  dopt.session_idle_ms = opt.session_idle_ms;
  dopt.cache_entries = opt.cache_entries;
  dopt.cache_dir = opt.cache_dir;
  dopt.journal_dir = opt.journal_dir;
  dopt.shared_breakers = opt.shared_breakers;

  serve::ServeDaemon daemon(std::move(dopt));
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "cudanp-cc: " << error << "\n";
    return 1;
  }
  std::cerr << "cudanp-cc: serving on " << opt.serve_socket << "\n";
  return daemon.serve();
}

/// --connect mode: one request against a running daemon. Submissions
/// re-emit the daemon's report verbatim (byte-identical to --batch);
/// structured rejects exit 10.
int run_client(const CliOptions& opt, std::ostream& os) {
  int fd = serve::connect_unix(opt.connect_socket);
  if (fd < 0) {
    std::cerr << "cudanp-cc: cannot connect to " << opt.connect_socket
              << ": " << std::strerror(errno) << "\n";
    return 1;
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  if (opt.status || opt.healthz || opt.shutdown) {
    bool ok;
    if (opt.shutdown)
      ok = serve::write_frame(fd, serve::kFrameShutdown, "");
    else
      ok = serve::write_frame(fd, serve::kFrameStatus,
                              opt.healthz ? "healthz" : "status");
    serve::Frame f;
    if (!ok ||
        serve::read_frame(fd, &f, -1) != serve::ReadStatus::kOk ||
        f.type != serve::kFrameStatusReply) {
      std::cerr << "cudanp-cc: no reply from daemon\n";
      return 1;
    }
    os << f.payload << "\n";
    return 0;
  }

  std::ifstream in(opt.batch);
  if (!in) {
    std::cerr << "cudanp-cc: cannot open " << opt.batch << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  serve::SubmitRequest req;
  req.tenant = opt.tenant;
  req.manifest = buffer.str();
  auto slash = opt.batch.find_last_of('/');
  req.base_dir = slash == std::string::npos ? std::string()
                                            : opt.batch.substr(0, slash);

  if (!serve::write_frame(fd, serve::kFrameSubmit, req.json())) {
    std::cerr << "cudanp-cc: cannot submit to daemon\n";
    return 1;
  }
  serve::Frame f;
  if (serve::read_frame(fd, &f, -1) != serve::ReadStatus::kOk) {
    std::cerr << "cudanp-cc: daemon closed the connection\n";
    return 1;
  }
  if (f.type == serve::kFrameReject) {
    auto rej = serve::RejectReply::from_json(f.payload);
    std::cerr << "cudanp-cc: rejected: "
              << (rej ? rej->cause : std::string("malformed-reject"));
    if (rej && !rej->detail.empty()) std::cerr << " (" << rej->detail << ")";
    std::cerr << "\n";
    return 10;
  }
  if (f.type != serve::kFrameReport) {
    std::cerr << "cudanp-cc: unexpected reply frame from daemon\n";
    return 1;
  }
  auto reply = serve::SubmitReply::from_json(f.payload);
  if (!reply) {
    std::cerr << "cudanp-cc: malformed report from daemon\n";
    return 1;
  }
  // Same renderings, same exit-code policy as a local --batch run.
  os << reply->report_text;
  std::cerr << reply->report_json << "\n";
  auto report = serve::ServiceReport::from_json(reply->report_json);
  if (!report) return 5;
  if (report->crashes > 0 || report->resource_limited > 0) return 8;
  return report->all_succeeded() ? 0 : 7;
}

int main(int argc, char** argv) {
  auto opt = parse_args(argc, argv);
  if (!opt) {
    usage();
    return 1;
  }

  if (opt->worker) {
    // Execution worker: serve attempt frames on stdin/stdout until the
    // supervisor closes the pipe. Crashes here are the whole point —
    // the supervisor contains them.
    return serve::run_worker_loop(STDIN_FILENO, STDOUT_FILENO,
                                  opt->worker_mem_mb);
  }

  if (!opt->serve_socket.empty()) {
    try {
      return run_serve(*opt);
    } catch (const std::exception& e) {
      std::cerr << "cudanp-cc: internal error: " << e.what() << "\n";
      return 5;
    }
  }

  if (!opt->connect_socket.empty()) {
    std::ofstream client_file;
    std::ostream* cos = &std::cout;
    if (!opt->output.empty()) {
      client_file.open(opt->output);
      if (!client_file) {
        std::cerr << "cudanp-cc: cannot write " << opt->output << "\n";
        return 1;
      }
      cos = &client_file;
    }
    try {
      return run_client(*opt, *cos);
    } catch (const std::exception& e) {
      std::cerr << "cudanp-cc: internal error: " << e.what() << "\n";
      return 5;
    }
  }

  if (!opt->batch.empty()) {
    std::ofstream batch_file;
    std::ostream* bos = &std::cout;
    if (!opt->output.empty()) {
      batch_file.open(opt->output);
      if (!batch_file) {
        std::cerr << "cudanp-cc: cannot write " << opt->output << "\n";
        return 1;
      }
      bos = &batch_file;
    }
    // Signal exit (SIGINT/SIGTERM) must not leak worker processes or
    // half-written journal segments.
    serve::cleanup::install_signal_handlers();
    try {
      return run_batch(*opt, *bos);
    } catch (const serve::ResumeMismatchError& e) {
      std::cerr << "cudanp-cc: " << e.what() << "\n";
      return 9;
    } catch (const std::exception& e) {
      std::cerr << "cudanp-cc: internal error: " << e.what() << "\n";
      return 5;
    }
  }

  std::ifstream in(opt->input);
  if (!in) {
    std::cerr << "cudanp-cc: cannot open " << opt->input << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  std::ofstream out_file;
  std::ostream* os = &std::cout;
  if (!opt->output.empty()) {
    out_file.open(opt->output);
    if (!out_file) {
      std::cerr << "cudanp-cc: cannot write " << opt->output << "\n";
      return 1;
    }
    os = &out_file;
  }

  try {
    auto program = np::NpCompiler::parse(buffer.str());
    const bool guarded = opt->sanitize || opt->fallback || opt->certify;
    const ir::Kernel* kernel = np::pick_kernel(*program, opt->kernel);
    // Transform mode needs a kernel with #pragma np loops; the guarded
    // modes also audit an unannotated one as a baseline.
    if (kernel && !guarded && opt->kernel.empty() &&
        kernel->parallel_loop_count() == 0)
      kernel = nullptr;
    if (!kernel) {
      std::cerr << "cudanp-cc: no kernel "
                << (opt->kernel.empty() ? "with #pragma np loops"
                                        : ("named '" + opt->kernel + "'"))
                << " in " << opt->input << "\n";
      return 2;
    }

    std::unique_ptr<ir::Kernel> preprocessed;
    if (opt->preprocess) {
      preprocessed = kernel->clone();
      auto rr = transform::reroll_unrolled_statements(*preprocessed);
      std::cerr << "cudanp-cc: re-rolled " << rr.statements_absorbed
                << " statements into " << rr.loops_created << " loop(s)\n";
      kernel = preprocessed.get();
    }

    auto spec = sim::DeviceSpec::gtx680();
    spec.sm_version = opt->sm;

    if (guarded) {
      sim::SanitizerEngine::Options sopt;
      sopt.error_limit = static_cast<std::size_t>(opt->error_limit);
      sopt.race_mode = opt->portable_races
                           ? sim::SanitizerEngine::RaceMode::kPortable
                           : sim::SanitizerEngine::RaceMode::kLockstep;
      // Unannotated kernel: nothing to transform, just run the baseline
      // under the sanitizer.
      if (kernel->parallel_loop_count() == 0) {
        sim::Interpreter::Options iopt;
        iopt.jobs = opt->jobs;
        iopt.limits.max_steps_per_block = opt->watchdog_steps;
        np::Runner runner(spec, iopt);
        np::Workload w =
            np::make_synthetic_workload(*kernel, opt->elems, opt->tb);
        auto run = runner.execute(
            np::ExecutionRequest::baseline(*kernel, w).sanitized(sopt));
        if (opt->fallback) {
          // Nothing to fall back from: the baseline is the answer either
          // way, but hazards still mean a degraded (exit 6) outcome.
          *os << "// baseline (kernel has no #pragma np loops)\n"
              << ir::print_kernel(*kernel) << "\n";
          std::cerr << run.engine.summary();
          return run.clean() ? 0 : 6;
        }
        *os << run.engine.summary();
        return run.clean() ? 0 : 3;
      }
      std::vector<transform::NpConfig> configs =
          np::NpCompiler::enumerate_configs(*kernel, opt->tb, spec);
      np::ValidationOptions vopt;
      vopt.sanitizer = sopt;
      vopt.interp.jobs = opt->jobs;
      vopt.interp.limits.max_steps_per_block = opt->watchdog_steps;
      vopt.certify = opt->certify;
      vopt.certified_fast_path = opt->certified_fast_path;
      const ir::Kernel& k = *kernel;
      const int n = opt->elems;
      const int tb = opt->tb;
      auto factory = [&k, n, tb] {
        return np::make_synthetic_workload(k, n, tb);
      };
      if (opt->fallback) {
        auto result =
            np::NpCompiler::compile_with_fallback(k, configs, factory, spec,
                                                  vopt);
        const auto& d = result.decision;
        if (d.used_baseline) {
          *os << "// baseline (every NP candidate was quarantined)\n"
              << ir::print_kernel(k) << "\n";
        } else {
          *os << "// " << d.chosen_config << "\n"
              << ir::print_kernel(*result.variant.kernel) << "\n";
        }
        std::cerr << d.json() << "\n";
        for (const auto& f : d.quarantined)
          std::cerr << "cudanp-cc: " << f.str() << "\n";
        // A refutation outranks ordinary degradation: the quarantine is
        // backed by a replayable counterexample, not a single bad run.
        for (const auto& f : d.quarantined)
          if (f.cause == np::FailureCause::kProvenWrong) return 11;
        return d.pristine() ? 0 : 6;
      }
      auto report = np::NpCompiler::validate(k, configs, factory, spec, vopt);
      *os << report.summary() << "\n";
      for (const auto& e : report.entries)
        if (e.verdict == "refuted") return 11;
      return report.all_clean() ? 0 : 3;
    }

    // Report-only mode on an unannotated kernel: describe it and stop.
    if (opt->report && kernel->parallel_loop_count() == 0) {
      print_report(*os, *kernel, nullptr, spec, opt->tb);
      return 0;
    }

    std::vector<transform::NpConfig> configs;
    if (opt->all) {
      configs = np::NpCompiler::enumerate_configs(*kernel, opt->tb, spec);
    } else {
      transform::NpConfig cfg;
      cfg.np_type = opt->np_type;
      cfg.slave_size = opt->slave_size;
      cfg.master_count = opt->tb;
      cfg.placement = opt->placement;
      cfg.sm_version = opt->sm;
      cfg.use_shfl = !opt->no_shfl && opt->sm >= 30;
      cfg.pad_loops = opt->pad;
      configs.push_back(cfg);
    }

    if (opt->report && !opt->all)
      print_report(*os, *kernel, nullptr, spec, opt->tb);

    for (const auto& cfg : configs) {
      auto variant = np::NpCompiler::transform(*kernel, cfg);
      if (opt->report) {
        *os << "\n== " << cfg.describe() << " ==\n";
        print_report(*os, *kernel, &variant, spec, cfg.block_threads());
      } else {
        *os << "// " << cfg.describe() << "\n"
            << ir::print_kernel(*variant.kernel) << "\n";
      }
    }
  } catch (const CompileError& e) {
    std::cerr << "cudanp-cc: " << e.what() << "\n";
    return 2;
  } catch (const sim::WatchdogError& e) {
    std::cerr << "cudanp-cc: " << e.what() << "\n";
    return 6;
  } catch (const SimError& e) {
    std::cerr << "cudanp-cc: simulation error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "cudanp-cc: internal error: " << e.what() << "\n";
    return 5;
  }
  return 0;
}
