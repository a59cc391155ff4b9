// certify-suite: a guarded, certified compile of each of the ten paper
// kernels, one after another from one client — what
// `cudanp-cc --fallback --certify` costs a user. Each compile parses
// the kernel source and runs NpCompiler::compile_with_fallback with
// ValidationOptions::certify at cert-suite's probe scale, with no
// certificate cache. Every verdict must equal the expected verdict
// recorded for the kernel in fingerprints.json.
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/benchmark.hpp"
#include "np/certifier.hpp"
#include "np/compiler.hpp"
#include "np/heuristic.hpp"
#include "np/runner.hpp"
#include "sim/symexec.hpp"

using namespace cudanp;

namespace perfbench {

namespace {

/// cert-suite's default workload scale: proofs are per shape, so the
/// probe scale proves the same expression structure cheaply.
constexpr double kProbeScale = 0.02;
/// The smoke test certifies only these (each well under a second).
const std::vector<std::string> kSmokeKernels = {"BK", "CFD"};
/// Warm-up compile in set-up: a kernel of about half a second.
constexpr const char* kWarmupKernel = "CFD";

struct Compiled {
  bool ok = false;
  std::string why;
  double ms = 0;  // the whole certified compile (parse included)
  np::Certificate cert;
  np::FallbackResult result;
};

/// One certified compile. The certificate-provider hooks bracket the
/// certifier call inside compile_with_fallback; they cache nothing.
Compiled certified_compile(const kernels::Benchmark& b,
                           const sim::DeviceSpec& spec, int jobs,
                           Tracer* tracer, std::uint64_t op) {
  Compiled c;
  const std::string name = b.name();
  auto t0 = Clock::now();
  ScopedSpan root(tracer, "bench.compile", op, Tracer::kNone, name);
  std::unique_ptr<ir::Program> program;
  {
    ScopedSpan s(tracer, "frontend.parse", op, root.id(), name);
    program = np::NpCompiler::parse(b.source());
  }
  const ir::Kernel* kernel = program->find_kernel(b.kernel_name());
  if (!kernel) {
    c.why = name + ": kernel " + b.kernel_name() + " not found";
    return c;
  }
  np::ValidationOptions vopt;
  vopt.certify = true;
  vopt.interp.jobs = jobs;
  int guarded = Tracer::kNone, cert_span = Tracer::kNone;
  bool certified = false;
  vopt.certificates.load = [&](const std::string&) {
    cert_span = tracer->begin("certify.cert", op, guarded, name);
    return std::optional<np::Certificate>();
  };
  vopt.certificates.save = [&](const np::Certificate& cert) {
    tracer->end(cert_span);
    c.cert = cert;
    certified = true;
  };
  guarded = tracer->begin("sim.guarded_compile", op, root.id(), name);
  c.result = np::NpCompiler::compile_with_fallback(
      *kernel, {}, [&b] { return b.make_workload(); }, spec, vopt);
  tracer->end(guarded);
  c.ms = ms_since(t0);
  if (!c.result.decision.pristine()) {
    c.why = name + ": compile degraded: " + c.result.decision.summary();
  } else if (!certified) {
    c.why = name + ": no certificate was issued";
  } else {
    c.ok = true;
  }
  return c;
}

/// sim::sym_execute of the baseline and the variant on the certifier's
/// probe environment (float data symbolic, everything else concrete
/// from the probe workload), timed on its own.
struct SymFacts {
  double ms = 0;
  std::int64_t nodes = 0;
  std::int64_t steps = 0;
  bool ok = false;
};

SymFacts sym_probe(const kernels::Benchmark& b,
                   const transform::TransformResult& variant) {
  const np::Workload probe = b.make_workload();
  std::vector<sim::SymArg> bargs;
  for (const auto& arg : probe.launch.args) {
    sim::SymArg a;
    if (const auto* id = std::get_if<sim::BufferId>(&arg)) {
      const sim::DeviceBuffer& buf = probe.mem->buffer(*id);
      a.type = buf.type();
      a.elems = static_cast<std::int64_t>(buf.size());
      if (buf.type() == ir::ScalarType::kFloat) {
        a.kind = sim::SymArg::Kind::kBufferSymbolic;
      } else {
        a.kind = sim::SymArg::Kind::kBufferConcrete;
        auto iv = buf.i32();
        a.ints.assign(iv.begin(), iv.end());
      }
    } else {
      const auto& v = std::get<sim::Value>(arg);
      a.kind = v.is_float() ? sim::SymArg::Kind::kScalarSymbolic
                            : sim::SymArg::Kind::kScalarConcrete;
      a.type = v.is_float() ? ir::ScalarType::kFloat : ir::ScalarType::kInt;
      if (!v.is_float()) a.scalar = v;
    }
    bargs.push_back(std::move(a));
  }
  std::vector<sim::SymArg> vargs = bargs;
  for (const auto& extra : variant.extra_buffers) {
    sim::SymArg a;
    a.kind = sim::SymArg::Kind::kBufferScratch;
    a.type = extra.type;
    a.elems = extra.elems_per_block * probe.launch.grid.count();
    vargs.push_back(a);
  }
  const np::CertifyOptions copt;
  sim::SymExecOptions sopt;
  sopt.max_steps = copt.max_steps;
  sopt.max_gather_cells = copt.max_gather_cells;
  sopt.max_nodes = copt.max_nodes;
  SymFacts f;
  sim::SymArena arena;
  auto t0 = Clock::now();
  sim::SymExecResult base = sim::sym_execute(
      b.kernel(), probe.launch.grid, probe.launch.block, bargs, arena, sopt);
  sim::SymExecResult var =
      sim::sym_execute(*variant.kernel, probe.launch.grid,
                       variant.block_dims, vargs, arena, sopt);
  f.ms = ms_since(t0);
  f.nodes = static_cast<std::int64_t>(arena.size());
  f.steps = base.steps + var.steps;
  f.ok = base.ok && var.ok;
  return f;
}

}  // namespace

RunResult run_certify_suite(const Context& ctx) {
  RunResult res;
  const RunOptions& opt = ctx.opt;
  Tracer* tracer = ctx.tracer;
  Tracer off(false, opt.workload);
  const auto spec = sim::DeviceSpec::gtx680();

  auto make_suite = [&] {
    std::vector<std::unique_ptr<kernels::Benchmark>> suite;
    if (opt.smoke) {
      for (const auto& n : kSmokeKernels)
        suite.push_back(kernels::make_benchmark(n, kProbeScale));
    } else {
      suite = kernels::make_benchmark_suite(kProbeScale);
    }
    return suite;
  };

  // The verdict each kernel's heuristic pick must get; anything but a
  // proof is a bad record, not an expectation.
  const Fingerprint expected =
      load_section(opt.fingerprints, "certify-suite.verdicts");
  for (const auto& [k, v] : expected)
    if (v != "proven" && v != "proven-modulo-reassoc") {
      std::cout << "FAIL expected verdict of " << k << " is " << v
                << ", not a proof\n";
      res.sound = false;
    }

  // Set-up, kSetupReps times (median reported): suite construction with its
  // probe workloads, and one certified compile of the cheapest kernel
  // (exec-pool threads, first-touch allocations).
  std::vector<std::unique_ptr<kernels::Benchmark>> suite;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    suite = make_suite();
    for (const auto& b : suite) (void)b->make_workload();
    auto warm = kernels::make_benchmark(kWarmupKernel, kProbeScale);
    Compiled c = certified_compile(*warm, spec, opt.nproc, &off, 0);
    if (!c.ok) {
      std::cout << "FAIL warm-up: " << c.why << "\n";
      res.sound = false;
    }
    setups.push_back(seconds_since(t0));
  }
  res.metric("setup_s", median(setups), "s");

  // Whole passes while the next one, as long as the last, ends within
  // --seconds; at least one (a traced run alternates untraced and traced
  // passes, at least one of each). A pass is most of a run, so a run
  // never overshoots --seconds by a whole pass.
  std::vector<double> pass_s, traced_pass_s;
  std::vector<Compiled> last(suite.size());
  Fingerprint fp;
  auto t_run = Clock::now();
  const int min_passes = tracer->on() ? 2 : 1;
  double last_pass_s = 0;
  for (std::uint64_t pass = 0;
       static_cast<int>(pass) < min_passes ||
       seconds_since(t_run) + last_pass_s <= opt.seconds;
       ++pass) {
    const auto t_pass = Clock::now();
    const bool traced = tracer->on() && pass % 2 == 1;
    double total = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const kernels::Benchmark& b = *suite[i];
      Compiled c = certified_compile(b, spec, opt.nproc,
                                     traced ? tracer : &off,
                                     100 * pass + i);
      const std::string name = b.name();
      const std::string verdict = np::to_string(c.cert.verdict);
      if (c.ok) {
        auto want = expected.find(name);
        if (want == expected.end()) {
          c.ok = opt.smoke && c.cert.proven();
          if (!c.ok) c.why = name + ": no expected verdict recorded";
        } else if (want->second != verdict) {
          c.ok = false;
          c.why = name + ": verdict " + verdict + ", expected " + want->second;
        }
      }
      const std::string config = c.result.decision.chosen_config;
      if (pass == 0) {
        fp[name + ".config"] = config;
        fp[name + ".verdict"] = verdict;
      } else if (fp[name + ".config"] != config ||
                 fp[name + ".verdict"] != verdict) {
        c.ok = false;
        c.why = name + ": chosen config or verdict differs from pass 0";
      }
      res.gate(c.ok, c.why);
      total += c.ms;
      last[i] = std::move(c);
    }
    (traced ? traced_pass_s : pass_s).push_back(total / 1e3);
    last_pass_s = seconds_since(t_pass);
  }

  // Modelled GPU time of what the compiles delivered: baseline against
  // the certified variant on the probe workload.
  const np::Runner runner(spec);
  std::vector<double> speedups;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const kernels::Benchmark& b = *suite[i];
    if (last[i].result.decision.used_baseline) continue;
    np::Workload wb = b.make_workload();
    np::Workload wv = b.make_workload();
    double base = runner.execute(np::ExecutionRequest::baseline(b.kernel(), wb))
                      .run.timing.seconds;
    double var = runner
                     .execute(np::ExecutionRequest::transformed(
                         last[i].result.variant, wv))
                     .run.timing.seconds;
    fp[b.name() + ".base_seconds"] = exact(base);
    fp[b.name() + ".np_seconds"] = exact(var);
    speedups.push_back(base / var);
  }

  // The operation is one pass of the ten certified compiles
  // (certify_pass_s); the rate is certified compiles per host second.
  const double pass = median(pass_s);
  double pct = 0;
  res.metric("op_p50_ms", 1e3 * pass, "ms");
  res.metric("op_tail_ms", 1e3 * tail_latency(pass_s, &pct), "ms");
  res.metric("rate_per_s", static_cast<double>(suite.size()) / pass, "1/s");
  res.metric("modeled_np_speedup_gm", geomean(speedups), "x");
  res.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  res.note("passes " + std::to_string(pass_s.size()) + " timed, " +
           std::to_string(suite.size()) +
           " certified compiles each; op_tail_ms is " +
           "p" + exact(pct) +
           " of them");
  for (std::size_t i = 0; i < suite.size(); ++i)
    res.note(suite[i]->name() + ": " + exact(last[i].ms) + " ms, " +
             fp[suite[i]->name() + ".verdict"] + ", " +
             fp[suite[i]->name() + ".config"]);

  if (tracer->on()) {
    double empirical = 0, parse = 0, xform = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const kernels::Benchmark& b = *suite[i];
      const std::string name = b.name();
      const double guarded = tracer->total_ms("sim.guarded_compile", name);
      const double cert = tracer->total_ms("certify.cert", name);
      res.metric("certify.cert_ms." + name, cert, "ms");
      empirical += guarded - cert;
      parse += tracer->total_ms("frontend.parse", name);

      const std::uint64_t side = Tracer::kSideOps + i;
      np::Workload probe = b.make_workload();
      auto t0 = Clock::now();
      int id = tracer->begin("transform.transform", side, Tracer::kNone, name);
      auto choice = np::suggest_config(
          b.kernel(), static_cast<int>(probe.launch.block.count()), spec);
      auto variant = np::NpCompiler::transform(b.kernel(), choice.config);
      tracer->end(id);
      xform += ms_since(t0);

      id = tracer->begin("certify.symexec", side, Tracer::kNone, name);
      SymFacts f = sym_probe(b, variant);
      tracer->end(id);
      if (!f.ok) res.note(name + ": symbolic execution aborted");
      res.metric("certify.symexec_ms." + name, f.ms, "ms");
      res.metric("certify.sym_nodes." + name, static_cast<double>(f.nodes),
                 "count");
      res.metric("certify.sym_steps." + name, static_cast<double>(f.steps),
                 "count");
      fp[name + ".sym_nodes"] = std::to_string(f.nodes);
      fp[name + ".sym_steps"] = std::to_string(f.steps);
    }
    res.metric("certify.empirical_ms", empirical, "ms");
    res.metric("frontend.parse_ms", parse, "ms");
    res.metric("transform.transform_ms", xform, "ms");
    res.metric("trace.overhead_ms",
               1e3 * (median(traced_pass_s) - median(pass_s)), "ms");
    res.traced_ops = static_cast<double>(traced_pass_s.size());
  }
  if (!opt.smoke) report_fingerprint(opt.fingerprints, "certify-suite", fp);
  return res;
}

}  // namespace perfbench
