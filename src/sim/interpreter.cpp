#include "sim/interpreter.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/exec_core.hpp"
#include "sim/exec_pool.hpp"
#include "sim/sanitizer.hpp"
#include "sim/vm.hpp"
#include "support/string_utils.hpp"

namespace cudanp::sim {

using namespace cudanp::ir;

namespace {

using exec::BlockSanitizer;

/// Everything one block produced, staged for the deterministic merge.
struct BlockOutcome {
  KernelStats stats;
  bool done = false;          // executed (possibly faulting); false when
                              // cooperative cancellation skipped the block
  bool ok = false;
  bool faulted = false;       // sanitized SimError, contained to the block
  bool tripped = false;       // sanitized watchdog trip; cancels the launch
  std::string fault_message;
  SourceLoc trip_loc;
  std::vector<HazardReport> reports;  // hazard stream, in execution order
  std::exception_ptr error;   // unsanitized failure, rethrown by the merge
};

}  // namespace

std::int64_t ExecutionLimits::resolve() const {
  return Interpreter::resolve_max_steps(max_steps_per_block, deadline_steps);
}

std::int64_t Interpreter::resolve_max_steps(std::int64_t requested) {
  if (requested > 0) return requested;
  if (requested < 0) return std::numeric_limits<std::int64_t>::max();
  if (const char* env = std::getenv("CUDANP_MAX_STEPS")) {
    // Checked parse: partial ("10x") or out-of-range values are ignored
    // (fall through to the default) instead of strtoll's prefix parse.
    if (auto v = parse_i64(env, 1, std::numeric_limits<std::int64_t>::max()))
      return *v;
  }
  return kDefaultMaxStepsPerBlock;
}

std::int64_t Interpreter::resolve_max_steps(std::int64_t requested,
                                            std::int64_t deadline_budget) {
  std::int64_t steps = resolve_max_steps(requested);
  if (deadline_budget > 0) steps = std::min(steps, deadline_budget);
  return steps;
}

void validate_launch(const DeviceSpec& spec, const LaunchConfig& cfg,
                     std::int64_t shared_mem_per_block) {
  auto bad_dim = [](const char* what, const Dim3& d) {
    return std::string("invalid launch: ") + what + " dimensions (" +
           std::to_string(d.x) + "," + std::to_string(d.y) + "," +
           std::to_string(d.z) + ") must all be positive";
  };
  if (cfg.grid.x <= 0 || cfg.grid.y <= 0 || cfg.grid.z <= 0)
    throw SimError(bad_dim("grid", cfg.grid));
  if (cfg.block.x <= 0 || cfg.block.y <= 0 || cfg.block.z <= 0)
    throw SimError(bad_dim("block", cfg.block));
  if (cfg.block.count() > spec.max_threads_per_block)
    throw SimError("invalid launch: block size " +
                   std::to_string(cfg.block.count()) +
                   " exceeds the device limit of " +
                   std::to_string(spec.max_threads_per_block) + " threads");
  if (shared_mem_per_block > spec.shared_mem_per_smx)
    throw SimError("invalid launch: " +
                   std::to_string(shared_mem_per_block) +
                   " bytes of shared memory per block exceed the SMX "
                   "capacity of " +
                   std::to_string(spec.shared_mem_per_smx) + " bytes");
}

KernelStats Interpreter::run(const Kernel& kernel, const LaunchConfig& cfg,
                             int resident_blocks_per_smx) {
  validate_launch(spec_, cfg);

  const auto bound = bind_kernel(kernel);
  // Lowered once per launch (after any fault-injected AST corruption) and
  // shared read-only by every block.
  const auto program = bytecode::lower(*bound);
  const std::int64_t nblocks = cfg.grid.count();
  const int jobs = ExecPool::resolve_jobs(opt_.jobs);
  const std::int64_t max_steps = opt_.limits.resolve();
  // One tripped (or erroring) block cooperatively cancels the blocks that
  // have not started yet; the ordered merge below re-runs any cancelled
  // block that precedes the first trip, so the outcome is bit-identical
  // to serial execution at every job count.
  std::atomic<bool> cancel{false};

  // Blocks are independent (they communicate only through __syncthreads
  // within themselves), so the grid runs on `jobs` host threads. Each
  // block writes its outcome to its own slot; nothing below touches the
  // shared SanitizerEngine until the ordered merge.
  std::vector<BlockOutcome> outcomes(static_cast<std::size_t>(nblocks));
  auto run_block = [&](std::int64_t i) {
    BlockOutcome& out = outcomes[static_cast<std::size_t>(i)];
    const Dim3 bidx{static_cast<int>(i % cfg.grid.x),
                    static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                    static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
    BlockSanitizer bs{opt_.sanitizer, {}};
    BlockSanitizer* bsp = opt_.sanitizer ? &bs : nullptr;
    try {
      out.stats = vm::run_block(*program, spec_, mem_, opt_, *bound, cfg,
                                bidx, resident_blocks_per_smx, bsp, i,
                                max_steps);
      out.ok = true;
    } catch (const WatchdogError& e) {
      if (opt_.sanitizer) {
        // A trip is not containable like a kSimFault: the same runaway
        // loop would burn the full budget in every remaining block, so
        // the launch is cancelled instead of kept going.
        out.tripped = true;
        out.fault_message = e.what();
        out.trip_loc = e.loc();
      } else {
        out.error = std::current_exception();
      }
      cancel.store(true, std::memory_order_relaxed);
    } catch (const SimError& e) {
      if (opt_.sanitizer) {
        // Keep-going mode: contain the fault to this block; the merge
        // records it after the block's earlier hazards, like the serial
        // engine did.
        out.faulted = true;
        out.fault_message = e.what();
      } else {
        out.error = std::current_exception();
        cancel.store(true, std::memory_order_relaxed);
      }
    } catch (...) {
      out.error = std::current_exception();
      cancel.store(true, std::memory_order_relaxed);
    }
    out.reports = std::move(bs.reports);
    out.done = true;
  };

  if (jobs <= 1 || nblocks <= 1) {
    for (std::int64_t i = 0; i < nblocks; ++i) {
      run_block(i);
      // Serial unsanitized runs abort at the first failing block, exactly
      // like the original grid loop; a sanitized trip likewise cancels
      // the remaining blocks (the merge discards everything after it).
      if (outcomes[static_cast<std::size_t>(i)].error)
        std::rethrow_exception(outcomes[static_cast<std::size_t>(i)].error);
      if (outcomes[static_cast<std::size_t>(i)].tripped) break;
    }
  } else {
    ExecPool::instance().parallel_for(nblocks, jobs, run_block, &cancel);
  }

  // Deterministic merge, in block-index order (== the old serial order):
  // replay each block's hazard stream through the shared engine so
  // dedupe, total counts and the error limit behave identically at every
  // job count, then fold stats of blocks that count.
  KernelStats total;
  bool stop = false;
  for (std::int64_t i = 0; i < nblocks && !stop; ++i) {
    BlockOutcome& out = outcomes[static_cast<std::size_t>(i)];
    // A block cancelled before it started may precede the first trip in
    // index order (a higher-index block can trip first under parallel
    // scheduling); run it inline now so the merge sees exactly the serial
    // prefix. Blocks at or past the first processed trip are never
    // reached — the merge stops there.
    if (!out.done) run_block(i);
    for (auto& r : out.reports) {
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
        stop = true;  // engine kept the triggering report
        break;
      }
    }
    if (stop) break;  // this block's stats are discarded, like serial
    if (out.error) std::rethrow_exception(out.error);
    if (out.ok) {
      total.add_block(out.stats);
    } else if (out.tripped) {
      HazardReport r;
      r.kind = HazardKind::kWatchdogTrip;
      r.kernel = kernel.name;
      r.block = Dim3{static_cast<int>(i % cfg.grid.x),
                     static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                     static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
      r.loc = out.trip_loc;
      r.message = out.fault_message;
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
      }
      // The launch is cancelled at the first (lowest-index) trip; later
      // blocks' outcomes are discarded, exactly like serial execution.
      stop = true;
    } else if (out.faulted) {
      HazardReport r;
      r.kind = HazardKind::kSimFault;
      r.kernel = kernel.name;
      r.block = Dim3{static_cast<int>(i % cfg.grid.x),
                     static_cast<int>((i / cfg.grid.x) % cfg.grid.y),
                     static_cast<int>(i / (cfg.grid.x * cfg.grid.y))};
      r.message = out.fault_message;
      try {
        opt_.sanitizer->report(std::move(r));
      } catch (const HazardLimitReached&) {
        stop = true;
      }
    }
  }
  // crit_path_cycles was summed per block; convert to the average block's
  // slowest-warp path.
  if (total.blocks > 0)
    total.crit_path_cycles /= static_cast<double>(total.blocks);
  return total;
}

RunResult run_and_time(const DeviceSpec& spec, DeviceMemory& mem,
                       const ir::Kernel& kernel, const LaunchConfig& cfg,
                       const ResourceUsage& resources,
                       Interpreter::Options opt) {
  RunResult r;
  validate_launch(spec, cfg, resources.shared_mem_per_block);
  r.occupancy = compute_occupancy(
      spec, static_cast<int>(cfg.block.count()), resources);
  if (r.occupancy.blocks_per_smx == 0)
    throw SimError("kernel '" + kernel.name +
                   "' cannot launch: occupancy zero (" +
                   r.occupancy.limiting_factor + ")");
  Interpreter interp(spec, mem, opt);
  r.stats = interp.run(kernel, cfg, r.occupancy.blocks_per_smx);
  TimingModel model(spec, opt.timing.weights);
  r.timing = model.estimate(r.stats, r.occupancy);
  return r;
}

}  // namespace cudanp::sim
