// paper-sim: the ten paper kernels at full scale, each launched as its
// baseline and as its heuristic-chosen NP variant through
// np::Runner::execute on the VM at jobs = nproc, one client, passes
// back to back. Every launch is checked against the benchmark's CPU
// reference validator. Host wall time of the launches and modelled GPU
// seconds are reported separately.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/benchmark.hpp"
#include "np/compiler.hpp"
#include "np/heuristic.hpp"
#include "np/runner.hpp"
#include "sim/binder.hpp"
#include "sim/bytecode.hpp"

using namespace cudanp;

namespace perfbench {

namespace {

constexpr const char* kKinds[2] = {"base", "np"};

struct Entry {
  const kernels::Benchmark* bench = nullptr;
  transform::TransformResult variant;
};

struct Prepared {
  std::vector<std::unique_ptr<kernels::Benchmark>> suite;
  std::vector<Entry> entries;
};

/// What one launch produced; compared exactly across passes.
struct LaunchFacts {
  double issue_slots = 0;
  double seconds = 0;
};

struct Launcher {
  const np::Runner& runner;
  Tracer* tracer;

  /// One launch: fresh inputs, execute (the timed part), CPU-reference
  /// check. Returns host wall ms of the execute call; *ok is the gate.
  double launch(const Entry& e, int kind, std::uint64_t op, int parent,
                std::optional<int> jobs, LaunchFacts* facts, bool* ok,
                std::string* why) const {
    np::Workload w;
    {
      ScopedSpan s(tracer, "bench.workload", op, parent);
      w = e.bench->make_workload();
    }
    np::ExecutionRequest req =
        kind == 0 ? np::ExecutionRequest::baseline(e.bench->kernel(), w)
                  : np::ExecutionRequest::transformed(e.variant, w);
    if (jobs) req.with_jobs(*jobs);
    const std::string detail = e.bench->name() + "." + kKinds[kind];
    double ms = 0;
    *ok = true;
    try {
      int id = tracer->begin("sim.execute", op, parent, detail);
      auto t0 = Clock::now();
      np::ExecutionResult r = runner.execute(req);
      ms = ms_since(t0);
      tracer->end(id);
      facts->issue_slots = r.run.stats.issue_slots;
      facts->seconds = r.run.timing.seconds;
    } catch (const std::exception& ex) {
      *ok = false;
      *why = detail + " launch failed: " + ex.what();
      return ms;
    }
    ScopedSpan s(tracer, "bench.validate", op, parent, detail);
    std::string msg;
    if (w.validate && !w.validate(*w.mem, &msg)) {
      *ok = false;
      *why = detail + " output differs from the CPU reference: " + msg;
    }
    return ms;
  }
};

/// Builds the suite and picks each kernel's NP variant the way a user
/// of the heuristic would: suggest_config, then transform.
Prepared prepare(double scale, const sim::DeviceSpec& spec) {
  Prepared p;
  p.suite = kernels::make_benchmark_suite(scale);
  for (const auto& b : p.suite) {
    np::Workload probe = b->make_workload();
    auto choice = np::suggest_config(
        b->kernel(), static_cast<int>(probe.launch.block.count()), spec);
    p.entries.push_back({b.get(), np::NpCompiler::transform(b->kernel(),
                                                            choice.config)});
  }
  return p;
}

/// Binder and bytecode lowering timed directly: fresh parses (the
/// binder caches on the kernel object) of every baseline and variant.
void layer_probe(const Prepared& p, Tracer* tracer, std::uint64_t op,
                 double* parse_ms,
                 double* transform_ms, double* bind_ms, double* lower_ms) {
  *parse_ms = *transform_ms = *bind_ms = *lower_ms = 0;
  for (const Entry& e : p.entries) {
    auto t0 = Clock::now();
    int id = tracer->begin("frontend.parse", op, Tracer::kNone,
                           e.bench->name());
    auto program = np::NpCompiler::parse(e.bench->source());
    tracer->end(id);
    *parse_ms += ms_since(t0);
    const ir::Kernel* k = program->find_kernel(e.bench->kernel_name());
    t0 = Clock::now();
    id = tracer->begin("transform.transform", op, Tracer::kNone,
                       e.bench->name());
    auto variant = np::NpCompiler::transform(*k, e.variant.config);
    tracer->end(id);
    *transform_ms += ms_since(t0);
    for (const ir::Kernel* kk :
         std::vector<const ir::Kernel*>{k, variant.kernel.get()}) {
      t0 = Clock::now();
      id = tracer->begin("sim.bind", op, Tracer::kNone, e.bench->name());
      auto bound = sim::bind_kernel(*kk);
      tracer->end(id);
      *bind_ms += ms_since(t0);
      t0 = Clock::now();
      id = tracer->begin("sim.lower", op, Tracer::kNone, e.bench->name());
      auto prog = sim::bytecode::lower(*bound);
      tracer->end(id);
      *lower_ms += ms_since(t0);
    }
  }
}

}  // namespace

RunResult run_paper_sim(const Context& ctx) {
  RunResult res;
  const RunOptions& opt = ctx.opt;
  Tracer* tracer = ctx.tracer;
  const double scale = opt.smoke ? 0.05 : 1.0;
  const auto spec = sim::DeviceSpec::gtx680();
  sim::Interpreter::Options iopt;
  iopt.engine = sim::Engine::kVm;
  iopt.jobs = opt.nproc;
  const np::Runner runner(spec, iopt);
  Tracer off(false, opt.workload);
  const Launcher quiet{runner, &off};

  // Set-up, kSetupReps times (median reported): suite construction, parse,
  // heuristic + transform, and a warm-up pass that starts the exec-pool
  // threads and fills the binder cache of the kept kernels.
  Prepared p;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    p = prepare(scale, spec);
    for (const Entry& e : p.entries)
      for (int kind = 0; kind < 2; ++kind) {
        LaunchFacts f;
        bool ok;
        std::string why;
        (void)quiet.launch(e, kind, 0, Tracer::kNone, std::nullopt, &f, &ok,
                           &why);
        if (!ok) {
          res.sound = false;
          std::cout << "FAIL warm-up: " << why << "\n";
        }
      }
    setups.push_back(seconds_since(t0));
  }
  res.metric("setup_s", median(setups), "s");

  const std::size_t n = p.entries.size();
  std::vector<LaunchFacts> first(2 * n);
  std::vector<std::vector<double>> exec_ms(2 * n);
  std::vector<double> pass_s, traced_pass_s;
  double slots_per_pass = 0;
  auto t_run = Clock::now();
  const int min_passes = opt.smoke ? 2 : 3;
  for (std::uint64_t pass = 0;
       static_cast<int>(pass) < min_passes || seconds_since(t_run) < opt.seconds;
       ++pass) {
    // A traced run alternates traced and untraced passes; the
    // difference of their medians is the tracing overhead.
    const bool traced = tracer->on() && pass % 2 == 1;
    const Launcher l{runner, traced ? tracer : &off};
    ScopedSpan root(traced ? tracer : nullptr, "bench.pass", pass);
    double total = 0, slots = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (int kind = 0; kind < 2; ++kind) {
        LaunchFacts f;
        bool ok;
        std::string why;
        double ms = l.launch(p.entries[i], kind, pass, root.id(), std::nullopt,
                             &f, &ok, &why);
        const std::size_t slot = 2 * i + static_cast<std::size_t>(kind);
        if (ok && pass == 0) first[slot] = f;
        if (ok && (f.issue_slots != first[slot].issue_slots ||
                   f.seconds != first[slot].seconds)) {
          ok = false;
          why = p.entries[i].bench->name() + "." + kKinds[kind] +
                " simulated statistics differ from the first pass";
        }
        res.gate(ok, why);
        total += ms;
        slots += f.issue_slots;
        exec_ms[slot].push_back(ms);
      }
    (traced ? traced_pass_s : pass_s).push_back(total / 1e3);
    slots_per_pass = slots;
  }

  // Modelled GPU time: the reproduced result (Fig. 10), never mixed
  // with host time.
  Fingerprint fp;
  std::vector<double> speedups;
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = p.entries[i];
    const LaunchFacts& b = first[2 * i];
    const LaunchFacts& v = first[2 * i + 1];
    const std::string name = e.bench->name();
    fp[name + ".config"] = e.variant.config.describe();
    fp[name + ".base_issue_slots"] = exact(b.issue_slots);
    fp[name + ".np_issue_slots"] = exact(v.issue_slots);
    fp[name + ".base_seconds"] = exact(b.seconds);
    fp[name + ".np_seconds"] = exact(v.seconds);
    const double sp = v.seconds > 0 ? b.seconds / v.seconds : 0;
    if (sp > 0) speedups.push_back(sp);
    res.metric("sim.issue_slots." + name, b.issue_slots + v.issue_slots,
               "count");
    res.metric("sim.modeled_speedup." + name, sp, "x");
    res.metric("sim.execute_ms." + name + ".base", median(exec_ms[2 * i]),
               "ms");
    res.metric("sim.execute_ms." + name + ".np", median(exec_ms[2 * i + 1]),
               "ms");
  }
  if (!opt.smoke) report_fingerprint(opt.fingerprints, "paper-sim", fp);

  // The operation is one pass of the 20 launches (sim_pass_s); the
  // rate is simulated warp issue slots per host second (millions).
  const double pass = median(pass_s);
  double pct = 0;
  res.metric("op_p50_ms", 1e3 * pass, "ms");
  res.metric("op_tail_ms", 1e3 * tail_latency(pass_s, &pct), "ms");
  res.metric("rate_per_s", slots_per_pass / 1e6 / pass, "1/s");
  res.metric("modeled_np_speedup_gm", geomean(speedups), "x");
  res.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  res.note("passes " + std::to_string(pass_s.size()) + " timed, " +
           std::to_string(2 * n) + " launches each; op_tail_ms is " +
           "p" + exact(pct) +
           " of them; " + exact(slots_per_pass) + " issue slots per pass");

  if (tracer->on()) {
    // Execute wall at jobs=1 against jobs=nproc: how well the exec pool
    // spreads each launch over host threads.
    for (std::size_t i = 0; i < n; ++i) {
      double serial = 0, parallel = 0;
      for (int kind = 0; kind < 2; ++kind) {
        LaunchFacts f;
        bool ok;
        std::string why;
        serial += quiet.launch(p.entries[i], kind, 0, Tracer::kNone, 1, &f,
                               &ok, &why);
        res.gate(ok, why);
        parallel += median(exec_ms[2 * i + static_cast<std::size_t>(kind)]);
      }
      res.metric("sim.pool_scaling." + p.entries[i].bench->name(),
                 serial / parallel, "x");
    }
    std::vector<double> parse, xform, bind, lower;
    for (int rep = 0; rep < 5; ++rep) {
      double a, b, c, d;
      layer_probe(p, tracer, Tracer::kSideOps + static_cast<std::uint64_t>(rep),
                  &a, &b, &c, &d);
      parse.push_back(a);
      xform.push_back(b);
      bind.push_back(c);
      lower.push_back(d);
    }
    res.metric("frontend.parse_ms", median(parse), "ms");
    res.metric("transform.transform_ms", median(xform), "ms");
    res.metric("sim.bind_ms", median(bind), "ms");
    res.metric("sim.lower_ms", median(lower), "ms");
    res.metric("trace.overhead_ms",
               1e3 * (median(traced_pass_s) - median(pass_s)), "ms");
    res.traced_ops = static_cast<double>(traced_pass_s.size());
    res.note("traced passes " + std::to_string(traced_pass_s.size()) +
             ", untraced passes " + std::to_string(pass_s.size()));
  }
  return res;
}

}  // namespace perfbench
