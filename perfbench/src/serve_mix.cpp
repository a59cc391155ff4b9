// serve-mix: a `cudanp-cc --serve` daemon with --isolate=process and a
// bounded compile cache, driven by two tenants over
// one connection each (serve::connect_unix plus wire frames). Each
// tenant is a closed loop: it submits a small manifest drawn by seed
// from the job templates below, waits for the report, and submits the
// next. Every served ServiceReport must be byte-identical to an
// in-process BatchService run of the same manifest (no isolation, no
// cache, no journal) and every job must succeed on its first choice.
// The daemon runs without --journal-dir: the journal's fsyncs measure
// the host's disk, which moved request latency by half between runs on
// a shared virtual disk. The traced run times the journal in-process
// (serve.journal_ms).
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/runner.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/daemon.hpp"
#include "serve/manifest.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

using namespace cudanp;

namespace perfbench {

namespace {

/// Job templates: paper kernel x elems x tb, each one that serves
/// pristine under np::make_synthetic_workload. Left out on purpose (they
/// would measure the retry/breaker path, not serving): LE, LU and MC
/// fault out of bounds because the synthetic workload sizes every
/// pointer argument n*n; SS reads uninitialised shared memory at
/// elems >= 128; MV and BK need tb = 32 at small elems.
struct Template {
  const char* bench;
  int elems;
  int tb;
};
constexpr Template kTemplates[] = {
    {"SS", 32, 16},   {"SS", 32, 32},   {"SS", 64, 32},   {"SS", 64, 64},
    {"SS", 96, 32},   {"LIB", 32, 32},  {"LIB", 64, 32},  {"LIB", 64, 64},
    {"LIB", 128, 32}, {"LIB", 128, 64}, {"CFD", 32, 32},  {"CFD", 64, 32},
    {"CFD", 64, 64},  {"CFD", 128, 32}, {"CFD", 128, 64}, {"NN", 32, 32},
    {"NN", 64, 32},   {"NN", 64, 64},   {"NN", 128, 32},  {"NN", 128, 64},
    {"TMV", 32, 32},  {"TMV", 64, 16},  {"TMV", 64, 32},  {"TMV", 64, 64},
    {"TMV", 128, 32}, {"MV", 32, 32},   {"MV", 64, 32},   {"MV", 128, 32},
    {"BK", 32, 32},   {"BK", 64, 64},   {"BK", 128, 32},  {"BK", 128, 64},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);
/// Jobs per request, and the daemon's compile-cache capacity: half the
/// template space, so uniformly drawn jobs hit the LRU cache about half
/// the time and both the hit and the miss path carry load.
constexpr int kJobsPerRequest = 4;
constexpr int kCacheEntries = kNumTemplates / 2;
constexpr int kTenants = 2;
/// Jobs the daemon runs at once (its --jobs), each in a worker process:
/// half the host's cores, so the daemon, its workers and both clients
/// fit on the host without queueing for a core.
int daemon_jobs(int nproc) { return std::max(1, nproc / 2); }
/// The stream's latency and throughput figures are medians over windows
/// of this length (by completion time), so a burst of load from outside
/// the benchmark that spans under half of the windows moves none of
/// them. About 400 requests per window: enough for a p95 per window.
constexpr double kWindowSeconds = 2.0;
/// Requests replayed in-process per mode by the traced run.
constexpr int kReplayRequests = 24;

std::string template_file(const Template& t) {
  return std::string(t.bench) + ".cu";
}

/// The per-tenant request stream: deterministic in (seed, tenant).
class Stream {
 public:
  Stream(std::uint64_t seed, int tenant)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(tenant) + 1),
        tenant_(tenant) {}

  std::string next(std::vector<int>* picks) {
    std::string m;
    picks->clear();
    for (int k = 0; k < kJobsPerRequest; ++k) {
      int t = static_cast<int>(rng_.next_below(kNumTemplates));
      picks->push_back(t);
      const Template& tp = kTemplates[t];
      m += "file=" + template_file(tp) + " name=t" + std::to_string(tenant_) +
           "-r" + std::to_string(count_) + "-j" + std::to_string(k) +
           " elems=" + std::to_string(tp.elems) +
           " tb=" + std::to_string(tp.tb) + "\n";
    }
    ++count_;
    return m;
  }

 private:
  SplitMix64 rng_;
  int tenant_;
  std::uint64_t count_ = 0;
};

/// One served request, kept for the correctness check after timing.
struct Served {
  int tenant = 0;
  std::string manifest;
  std::vector<int> picks;
  double done_s = 0;  // since stream start
  double ms = 0;
  bool traced = false;
  bool replied = false;
  std::string error;
  std::string text;
  std::string json;
};

/// The spawned `cudanp-cc --serve` process (its own process group, so
/// stopping it also reaps any worker it left behind).
class Daemon {
 public:
  explicit Daemon(const std::string& dir) : dir_(dir) {
    socket_ = dir + "/d.sock";
    std::filesystem::create_directories(dir);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& cudanp_cc, int jobs, std::string* error) {
    std::vector<std::string> args = {
        cudanp_cc,
        "--serve=" + socket_,
        "--jobs=" + std::to_string(jobs),
        "--isolate=process",
        "--cache-entries=" + std::to_string(kCacheEntries)};
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::setpgid(0, 0);
      int log = ::open((dir_ + "/daemon.log").c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::close(log);
      }
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::setpgid(pid_, pid_);
    // Polled every millisecond: the wait is part of setup_s.
    for (int i = 0; i < 10'000; ++i) {
      int fd = serve::connect_unix(socket_);
      if (fd >= 0) {
        ::close(fd);
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "daemon exited during start-up (see daemon.log)";
        return false;
      }
      ::usleep(1'000);
    }
    *error = "daemon did not open its socket within 10 s";
    return false;
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// The daemon's `status` document, parsed; nullopt on failure.
  std::optional<json::Value> status() const {
    int fd = serve::connect_unix(socket_);
    if (fd < 0) return std::nullopt;
    serve::Frame f;
    bool ok = serve::write_frame(fd, serve::kFrameStatus, "status") &&
              serve::read_frame(fd, &f, 10'000) == serve::ReadStatus::kOk &&
              f.type == serve::kFrameStatusReply;
    ::close(fd);
    if (!ok) return std::nullopt;
    return json::parse(f.payload);
  }

  /// Peak resident set of the daemon process so far (MiB), from procfs.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
      in.ignore(1 << 16, '\n');
    }
    return 0;
  }

  /// Graceful drain ('Q' frame), then SIGKILL to the whole group if the
  /// daemon has not exited within 15 s. Always reaps.
  void stop() {
    if (pid_ <= 0) return;
    int fd = serve::connect_unix(socket_);
    if (fd >= 0) {
      serve::Frame f;
      if (serve::write_frame(fd, serve::kFrameShutdown, ""))
        (void)serve::read_frame(fd, &f, 5'000);
      ::close(fd);
    }
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1500 && !exited; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) exited = true;
      else ::usleep(10'000);
    }
    ::kill(-pid_, SIGKILL);
    if (!exited) ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// One tenant's connection: submit a manifest, wait for the reply.
class Client {
 public:
  Client(const std::string& socket, std::string tenant, std::string base_dir)
      : fd_(serve::connect_unix(socket)), tenant_(std::move(tenant)),
        base_dir_(std::move(base_dir)) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool submit(const std::string& manifest, Served* out) {
    serve::SubmitRequest req;
    req.tenant = tenant_;
    req.manifest = manifest;
    req.base_dir = base_dir_;
    serve::Frame f;
    if (!serve::write_frame(fd_, serve::kFrameSubmit, req.json()) ||
        serve::read_frame(fd_, &f, 60'000) != serve::ReadStatus::kOk) {
      out->error = "no reply from the daemon";
      return false;
    }
    if (f.type == serve::kFrameReject) {
      auto rej = serve::RejectReply::from_json(f.payload);
      out->error = "rejected: " + (rej ? rej->cause : std::string("?"));
      return false;
    }
    auto reply = f.type == serve::kFrameReport
                     ? serve::SubmitReply::from_json(f.payload)
                     : std::nullopt;
    if (!reply) {
      out->error = "malformed reply";
      return false;
    }
    out->text = std::move(reply->report_text);
    out->json = std::move(reply->report_json);
    out->replied = true;
    return true;
  }

 private:
  int fd_;
  std::string tenant_;
  std::string base_dir_;
};

/// The reference the daemon is held to: BatchService in-process with
/// the daemon's defaults minus isolation, cache and journal.
serve::ServiceOptions reference_options(int jobs) {
  serve::ServiceOptions so;
  so.jobs = jobs;
  return so;
}

std::vector<serve::JobSpec> parse_jobs(const std::string& manifest,
                                       const std::string& base_dir) {
  std::string error;
  auto jobs =
      serve::parse_manifest(manifest, base_dir, serve::ManifestDefaults{},
                            &error);
  if (jobs.empty()) throw std::runtime_error("manifest: " + error);
  return jobs;
}

double run_batch_ms(const std::vector<serve::JobSpec>& jobs,
                    const serve::ServiceOptions& so) {
  auto t0 = Clock::now();
  serve::BatchService svc(sim::DeviceSpec::gtx680(), so);
  (void)svc.run(jobs);
  return ms_since(t0);
}

/// Set-up: spawn the daemon and warm it with one request holding every
/// template (spawns the workers, fills the cache to capacity).
std::unique_ptr<Daemon> start_daemon(const RunOptions& opt,
                                     const std::string& dir,
                                     const std::string& base_dir,
                                     const std::string& warm_manifest) {
  auto d = std::make_unique<Daemon>(dir);
  std::string error;
  if (!d->start(opt.cudanp_cc, daemon_jobs(opt.nproc), &error))
    throw std::runtime_error("serve-mix: " + error);
  Client warm(d->socket(), "warm-up", base_dir);
  Served s;
  if (!warm.connected() || !warm.submit(warm_manifest, &s))
    throw std::runtime_error("serve-mix: warm-up request failed: " + s.error);
  return d;
}

}  // namespace

RunResult run_serve_mix(const Context& ctx) {
  RunResult res;
  const RunOptions& opt = ctx.opt;
  Tracer* tracer = ctx.tracer;
  if (opt.work_dir.size() > 80)
    throw std::runtime_error("serve-mix: --work-dir too long for a socket");
  // A daemon that dies mid-request must surface as a failed write, not
  // kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);

  // Kernel sources as files, the way clients ship manifests.
  const std::string tdir = opt.work_dir + "/templates";
  std::filesystem::create_directories(tdir);
  std::set<std::string> written;
  std::string warm_manifest;
  for (int t = 0; t < kNumTemplates; ++t) {
    const Template& tp = kTemplates[t];
    if (written.insert(tp.bench).second) {
      std::ofstream(tdir + "/" + template_file(tp))
          << kernels::make_benchmark(tp.bench)->source();
    }
    warm_manifest += "file=" + template_file(tp) + " name=warm-" +
                     std::to_string(t) + " elems=" + std::to_string(tp.elems) +
                     " tb=" + std::to_string(tp.tb) + "\n";
  }
  const std::string base_dir = std::filesystem::absolute(tdir).string();

  // Set-up kSetupReps times (median reported); the last daemon serves.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon) daemon->stop();
    auto t0 = Clock::now();
    daemon = start_daemon(opt, opt.work_dir + "/d" + std::to_string(rep),
                          base_dir, warm_manifest);
    setups.push_back(seconds_since(t0));
  }
  res.metric("setup_s", median(setups), "s");

  // The timed stream: two closed-loop tenants.
  std::mutex mu;
  std::vector<Served> served;
  std::atomic<bool> setup_failed{false};
  const auto t_start = Clock::now();
  auto tenant_loop = [&](int tenant) {
    Client client(daemon->socket(), "tenant" + std::to_string(tenant),
                  base_dir);
    if (!client.connected()) {
      setup_failed = true;
      return;
    }
    Stream stream(opt.seed, tenant);
    for (std::uint64_t i = 0; seconds_since(t_start) < opt.seconds; ++i) {
      Served s;
      s.tenant = tenant;
      s.manifest = stream.next(&s.picks);
      s.traced = tracer->on() && i % 2 == 1;
      const std::uint64_t op = i * kTenants + static_cast<std::uint64_t>(tenant);
      auto t0 = Clock::now();
      int id = s.traced ? tracer->begin("serve.request", op) : Tracer::kNone;
      bool ok = client.submit(s.manifest, &s);
      tracer->end(id);
      s.ms = ms_since(t0);
      s.done_s = seconds_since(t_start);
      std::lock_guard<std::mutex> lk(mu);
      served.push_back(std::move(s));
      if (!ok) break;
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) clients.emplace_back(tenant_loop, t);
  for (auto& c : clients) c.join();
  if (setup_failed) throw std::runtime_error("serve-mix: client cannot connect");

  auto status = daemon->status();
  double hit_ratio = 0, workers = 0;
  if (status) {
    const json::Value* cache = status->find("cache");
    const json::Value* w = status->find("workers");
    if (cache) {
      double hits = static_cast<double>(cache->get_i64("hits"));
      double misses = static_cast<double>(cache->get_i64("misses"));
      hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
    }
    if (w) workers = static_cast<double>(w->get_i64("spawned"));
  } else {
    res.sound = false;
    std::cout << "FAIL daemon status request failed\n";
  }
  const double daemon_rss = daemon->peak_rss_mb();
  daemon->stop();

  // Correctness, after timing: every report byte-identical to an
  // in-process run of the same manifest, every job pristine. Reference
  // runs use jobs = 1 (no exec pool), so nproc of them run side by side.
  const serve::ServiceOptions ref_opt = reference_options(1);
  const auto spec = sim::DeviceSpec::gtx680();
  std::vector<std::string> why(served.size());
  std::vector<std::vector<std::string>> configs(served.size());
  std::atomic<std::size_t> next{0};
  auto verify = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < served.size();) {
      const Served& s = served[i];
      if (!s.replied) {
        why[i] = "request failed: " + s.error;
        continue;
      }
      try {
        serve::BatchService svc(spec, ref_opt);
        serve::ServiceReport ref = svc.run(parse_jobs(s.manifest, base_dir));
        if (ref.str() != s.text || ref.json() != s.json)
          why[i] = "served report differs from the in-process run";
        else if (ref.succeeded != ref.submitted)
          why[i] = "a job was not served pristine";
        for (const auto& j : ref.jobs) configs[i].push_back(j.chosen_config);
      } catch (const std::exception& e) {
        why[i] = std::string("reference run failed: ") + e.what();
      }
    }
  };
  std::vector<std::thread> checkers;
  for (int t = 0; t < opt.nproc; ++t) checkers.emplace_back(verify);
  for (auto& c : checkers) c.join();
  std::vector<std::string> chosen(kNumTemplates);
  for (std::size_t i = 0; i < served.size(); ++i) {
    res.gate(why[i].empty(), "tenant" + std::to_string(served[i].tenant) +
                                 " " + why[i] + "\n" + served[i].manifest);
    for (std::size_t k = 0; k < configs[i].size(); ++k)
      chosen[static_cast<std::size_t>(served[i].picks[k])] = configs[i][k];
  }

  // Modelled GPU time of what was served: each template's baseline
  // against its served variant, on the job's synthetic workload.
  Fingerprint fp;
  std::vector<double> speedups;
  const np::Runner runner(spec);
  for (int t = 0; t < kNumTemplates; ++t) {
    const Template& tp = kTemplates[t];
    const std::string key = std::string(tp.bench) + "/" +
                            std::to_string(tp.elems) + "/" +
                            std::to_string(tp.tb);
    const std::string& cfg = chosen[static_cast<std::size_t>(t)];
    if (cfg.empty()) continue;
    auto bench = kernels::make_benchmark(tp.bench);
    auto program = np::NpCompiler::parse(bench->source());
    const ir::Kernel& k = *program->find_kernel(bench->kernel_name());
    np::Workload wb = np::make_synthetic_workload(k, tp.elems, tp.tb);
    double base = runner.execute(np::ExecutionRequest::baseline(k, wb))
                      .run.timing.seconds;
    double var = base;
    for (const auto& c : np::NpCompiler::enumerate_configs(k, tp.tb, spec)) {
      if (c.describe() != cfg) continue;
      auto variant = np::NpCompiler::transform(k, c);
      np::Workload wv = np::make_synthetic_workload(k, tp.elems, tp.tb);
      var = runner.execute(np::ExecutionRequest::transformed(variant, wv))
                .run.timing.seconds;
    }
    fp[key + ".config"] = cfg;
    fp[key + ".base_seconds"] = exact(base);
    fp[key + ".np_seconds"] = exact(var);
    speedups.push_back(base / var);
  }

  // Latency over untraced requests, throughput over all; each figure is
  // the median over the stream's windows.
  double last = 0;
  for (const Served& s : served) last = std::max(last, s.done_s);
  const int windows = std::max(1, static_cast<int>(last / kWindowSeconds));
  std::vector<std::vector<double>> wlat(static_cast<std::size_t>(windows));
  std::vector<double> wdone(static_cast<std::size_t>(windows));
  for (const Served& s : served) {
    auto w = static_cast<std::size_t>(
        std::min(windows - 1, static_cast<int>(s.done_s / kWindowSeconds)));
    if (s.replied) ++wdone[w];
    if (!s.traced) wlat[w].push_back(s.ms);
  }
  std::vector<double> p50s, tails, rates;
  double pct = 0;
  for (std::size_t w = 0; w < wlat.size(); ++w) {
    const double span = w + 1 == wlat.size()
                            ? last - kWindowSeconds * static_cast<double>(w)
                            : kWindowSeconds;
    p50s.push_back(median(wlat[w]));
    tails.push_back(tail_latency(wlat[w], &pct));
    rates.push_back(wdone[w] / span);
  }
  // The operation is one request (req_p50_ms, req_p99_ms, req_per_s).
  res.metric("op_p50_ms", median(p50s), "ms");
  res.metric("op_tail_ms", median(tails), "ms");
  res.metric("rate_per_s", median(rates), "1/s");
  res.metric("modeled_np_speedup_gm", geomean(speedups), "x");
  res.metric("peak_rss_mb", std::max(daemon_rss, children_peak_rss_mb()),
             "MB");
  res.note("requests " + std::to_string(served.size()) + " (" +
           std::to_string(kJobsPerRequest) + " jobs each) in " +
           std::to_string(windows) + " windows; op_tail_ms is p" +
           exact(pct) + " per window (" + exact(median(wdone)) +
           " requests each); cache hit ratio " + exact(hit_ratio) +
           ", workers spawned " + exact(workers));
  if (!opt.smoke) report_fingerprint(opt.fingerprints, "serve-mix", fp);

  if (tracer->on()) {
    // Differential timings: the first requests of the stream replayed
    // in-process under one option change at a time; "full" is the
    // daemon's options (isolation and cache).
    std::vector<std::vector<serve::JobSpec>> sample;
    for (const Served& s : served)
      if (static_cast<int>(sample.size()) < kReplayRequests)
        sample.push_back(parse_jobs(s.manifest, base_dir));
    serve::SupervisorOptions sup_opt;
    sup_opt.worker_cmd = {opt.cudanp_cc, "--worker"};
    serve::WorkerSupervisor sup(sup_opt);
    serve::ArtifactCache cache(serve::ArtifactCacheOptions{kCacheEntries, {}});
    const std::string jdir = opt.work_dir + "/replay-journal";
    std::filesystem::create_directories(jdir);
    auto replay = [&](const std::string& mode) {
      std::vector<double> ms;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        serve::ServiceOptions so = reference_options(daemon_jobs(opt.nproc));
        if (mode != "batch" && mode != "journal") {
          so.isolate = serve::IsolationMode::kProcess;
          so.shared_supervisor = &sup;
        }
        if (mode == "journal")
          so.journal_path = jdir + "/" + mode + std::to_string(i) + ".journal";
        if (mode == "full") so.artifact_cache = &cache;
        ScopedSpan s(tracer, "serve.batch", Tracer::kSideOps + i,
                     Tracer::kNone, mode);
        ms.push_back(run_batch_ms(sample[i], so));
      }
      return median(ms);
    };
    (void)replay("isolation");  // spawns the replay's workers
    {
      // Same warm-up as the daemon: one request holding every template.
      serve::ServiceOptions so = reference_options(daemon_jobs(opt.nproc));
      so.isolate = serve::IsolationMode::kProcess;
      so.shared_supervisor = &sup;
      so.artifact_cache = &cache;
      (void)run_batch_ms(parse_jobs(warm_manifest, base_dir), so);
    }
    const double batch = replay("batch");
    const double isolated = replay("isolation");
    const double journal = replay("journal");
    const double full = replay("full");
    std::vector<double> lat, traced_lat;
    for (const Served& s : served) (s.traced ? traced_lat : lat).push_back(s.ms);
    res.metric("serve.batch_ms", batch, "ms");
    res.metric("serve.isolation_ms", isolated - batch, "ms");
    res.metric("serve.journal_ms", journal - batch, "ms");
    res.metric("serve.daemon_ms", median(lat) - full, "ms");
    res.metric("trace.overhead_ms", median(traced_lat) - median(lat), "ms");
    res.traced_ops = static_cast<double>(traced_lat.size());

    // The artifact cache called directly on the stream's payloads:
    // every job's key looked up in stream order, misses stored.
    std::vector<std::string> keys(kNumTemplates), payloads(kNumTemplates);
    for (int t = 0; t < kNumTemplates; ++t) {
      const Template& tp = kTemplates[t];
      serve::AttemptRequest req;
      req.source = kernels::make_benchmark(tp.bench)->source();
      req.elems = tp.elems;
      req.tb = tp.tb;
      keys[static_cast<std::size_t>(t)] = np::NpCompiler::artifact_key(
          req.source, "elems=" + std::to_string(tp.elems) +
                          " tb=" + std::to_string(tp.tb));
      payloads[static_cast<std::size_t>(t)] =
          serve::execute_attempt(req, spec).json();
    }
    serve::ArtifactCache direct(serve::ArtifactCacheOptions{kCacheEntries, {}});
    std::vector<double> lookup_us, store_us;
    for (const Served& s : served)
      for (int t : s.picks) {
        const auto i = static_cast<std::size_t>(t);
        auto t0 = Clock::now();
        auto hit = direct.lookup(keys[i]);
        lookup_us.push_back(1e3 * ms_since(t0));
        if (hit) continue;
        t0 = Clock::now();
        direct.store(keys[i], payloads[i]);
        store_us.push_back(1e3 * ms_since(t0));
      }
    res.metric("serve.cache_lookup_us", median(lookup_us), "us");
    res.metric("serve.cache_store_us", median(store_us), "us");
    res.metric("serve.cache_hit_ratio", hit_ratio, "share");
    res.metric("serve.workers_spawned", workers, "count");
  }
  return res;
}

}  // namespace perfbench
