// Concrete value domain of the bytecode VM: the simulator's block core.
//
// BlockCore owns the per-block state and every semantic helper the VM's
// instructions call over Value lanes: the slot frame, geometry lane
// caches, per-warp cost charging, the watchdog step counter, the
// sanitizer hooks and every memory-access / operator execution path.
// vm::Machine<BlockCore> (sim/vm.hpp) derives from it and contributes
// only dispatch, registers and the mask stack; the symbolic core
// (sim/symvm.cpp) implements the same hooks over SymArena node ids.
//
// This header is an implementation detail of sim/; nothing outside the
// interpreter, the VM and its two cores should include it.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/interpreter.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"
#include "sim/ops.hpp"
#include "sim/sanitizer.hpp"
#include "support/diagnostics.hpp"

namespace cudanp::sim::exec {

using Mask = std::vector<std::uint8_t>;
using Lanes = std::vector<Value>;

[[nodiscard]] inline bool any(const Mask& m) {
  for (auto b : m)
    if (b) return true;
  return false;
}

/// Per-variable storage within one block, indexed by the binder's slot id
/// (sim/binder.hpp) in a flat frame vector.
struct Slot {
  ir::Type type;
  /// Register scalars & register/local arrays: per-lane storage
  /// (lane-major: lane * elems + idx). Shared arrays/scalars: one copy.
  Lanes data;
  /// Word offset inside the block's shared or local space (for bank /
  /// coalescing math).
  std::uint64_t base_word = 0;
  bool is_buffer_param = false;
  /// Scalar kernel argument: one shared copy, read-only.
  bool is_uniform_param = false;
  BufferId buffer = 0;
  /// False until the declaration (or param binding) executes; preserves
  /// the old map-absence "use of undeclared variable" semantics now that
  /// every slot exists up front.
  bool live = false;
  /// Sanitizer init bitmap, indexed like `data` (empty when the sanitizer
  /// is off, and for shared / buffer / uniform slots, which are shadowed
  /// elsewhere).
  std::vector<std::uint8_t> shadow;
};

/// Per-block hazard stream. Blocks never touch the shared SanitizerEngine
/// while executing (so the grid can run on several threads); they collect
/// reports locally, in execution order, and Interpreter::run replays the
/// streams through the engine in block-index order afterwards. That
/// replay reproduces the engine's dedupe, total count and error-limit
/// semantics exactly, at every job count.
struct BlockSanitizer {
  /// Options are read-only during execution; buffer shadow bitmaps are
  /// written element-wise, and well-formed kernels touch block-disjoint
  /// elements (like the data buffers themselves).
  SanitizerEngine* engine = nullptr;
  std::vector<HazardReport> reports;
};

/// Per-lane value source: a full lane vector or one broadcast value.
/// The VM passes registers, geometry vectors, live slot storage, or
/// folded immediates without copying.
template <class T>
struct LaneViewOf {
  const T* vec = nullptr;
  T splat{};
  [[nodiscard]] T at(std::size_t l) const { return vec ? vec[l] : splat; }
};
using LaneView = LaneViewOf<Value>;

class BlockCore {
 public:
  using Lane = Value;
  /// Initial register contents.
  static constexpr Value kNoLane{};

  BlockCore(const DeviceSpec& spec, DeviceMemory& mem,
            const Interpreter::Options& opt, const BoundKernel& bound,
            const LaunchConfig& cfg, Dim3 block_idx, int resident_blocks,
            BlockSanitizer* san, std::int64_t flat_block,
            std::int64_t max_steps);

  /// Injected stall (FaultPlan::stall_block) of this block, if any.
  void stall_if_injected();

  /// Folds the per-warp counters into the block's KernelStats at the end
  /// of a block run.
  [[nodiscard]] KernelStats collect_stats() const;

 protected:
  // ---------------- dispatch hooks (vm::Machine) ----------------
  /// Resolves a non-register operand to a zero-copy lane view.
  [[nodiscard]] LaneView operand(const bytecode::Operand& o) const {
    switch (o.kind) {
      case bytecode::Operand::Kind::kImm:
        return LaneView{nullptr, o.imm};
      case bytecode::Operand::Kind::kGeom:
        return LaneView{geom_[o.id].data(), Value{}};
      case bytecode::Operand::Kind::kUniform:
        return LaneView{nullptr,
                        frame_[static_cast<std::size_t>(o.id)].data[0]};
      case bytecode::Operand::Kind::kSlotData:
        return LaneView{frame_[static_cast<std::size_t>(o.id)].data.data(),
                        Value{}};
      case bytecode::Operand::Kind::kReg:
      case bytecode::Operand::Kind::kNone:
        break;
    }
    return LaneView{};
  }
  [[noreturn]] static void trap(const std::string& message) {
    throw SimError(message);
  }
  void charge_alu(const Mask& mask) {
    charge_issue(mask, opt_.timing.weights.alu);
  }
  void require_live(std::int32_t slot, const std::string& name,
                    SourceLoc loc) {
    (void)slot_at(slot, name, loc);
  }
  void shfl_guard() const {
    if (spec_.sm_version < 30)
      throw SimError("__shfl requires sm_30+ (device is sm_" +
                     std::to_string(spec_.sm_version) + ")");
  }
  /// Splits `mask` on `c` into the then (`tm`) and else (`em`) arms and
  /// counts warps that take both.
  void if_split(std::size_t pc, LaneView c, const Mask& mask, Mask& tm,
                Mask& em);
  void if_else(const bytecode::Instr&) {}
  void if_end(const bytecode::Instr&) {}
  void loop_enter(SourceLoc loc) { loop_stack_.emplace_back(loc, 0); }
  /// Back-edges are budgeted so even empty or condition-only spins trip
  /// the watchdog.
  void loop_backedge(SourceLoc loc) {
    count_step(loc);
    ++loop_stack_.back().second;
  }
  void loop_exit() { loop_stack_.pop_back(); }
  /// Clears the lanes of `mask` where the loop condition `c` is false.
  void mask_and(Mask& mask, LaneView c, bool /*is_while*/) {
    for (int l = 0; l < nlanes_; ++l) {
      auto i = static_cast<std::size_t>(l);
      if (mask[i] && !c.at(i).truthy()) mask[i] = 0;
    }
  }
  /// The max_loop_iterations valve, checked at every loop iteration (the
  /// innermost loop's back-edge count is its iteration count there).
  void loop_valve(const bytecode::Instr& ins) const {
    if (loop_stack_.back().second > opt_.limits.max_loop_iterations)
      throw SimError(std::string(ins.aux ? "while loop" : "loop") +
                     " exceeded max iterations at " + ins.loc.str());
  }
  void on_return(const Mask&) {}

  // ---------------- setup ----------------
  /// Precomputes the 12 builtin geometry vectors once per block, so an
  /// executed threadIdx/blockDim/... reference is a plain vector copy.
  void init_geometry();
  void bind_params();

  // ---------------- cost charging ----------------
  /// Iterates warps that have >= 1 active lane.
  template <typename Fn>
  void for_each_active_warp(const Mask& mask, Fn&& fn) {
    for (int w = 0; w < nwarps_; ++w) {
      int lo = w * spec_.warp_size;
      int hi = std::min(lo + spec_.warp_size, nlanes_);
      bool active = false;
      for (int l = lo; l < hi; ++l) {
        if (mask[static_cast<std::size_t>(l)]) {
          active = true;
          break;
        }
      }
      if (active) fn(w, lo, hi);
    }
  }

  void charge_issue(const Mask& mask, double weight) {
    for_each_active_warp(mask, [&](int w, int, int) {
      warp_issue_[static_cast<std::size_t>(w)] += weight;
    });
  }

  void charge_latency(int warp, double cycles) {
    warp_pending_[static_cast<std::size_t>(warp)] =
        std::max(warp_pending_[static_cast<std::size_t>(warp)], cycles);
  }

  void begin_leaf_stmt() {
    std::fill(warp_pending_.begin(), warp_pending_.end(), 0.0);
  }
  void end_leaf_stmt() {
    for (int w = 0; w < nwarps_; ++w)
      warp_latency_[static_cast<std::size_t>(w)] +=
          warp_pending_[static_cast<std::size_t>(w)];
  }

  // ---------------- watchdog ----------------
  /// Charges one interpreted statement (or loop back-edge) against the
  /// block's step budget and fires the fault-injection hook. Deterministic
  /// per block — the count never depends on job scheduling.
  void count_step(const SourceLoc& loc);

  [[nodiscard]] WatchdogError make_watchdog_error(const SourceLoc& loc) const;

  /// Injected stall (FaultPlan::stall_block): burns budget until the
  /// watchdog trips. A disabled watchdog would hang forever, so that
  /// combination degrades to a plain injected SimError instead.
  [[noreturn]] void stall();

  // ---------------- memory access paths ----------------
  void charge_global(const DeviceBuffer& buf, LaneView idx, const Mask& mask);
  void charge_shared(const Slot& slot, const Value* flat_idx,
                     const Mask& mask);
  void charge_local(const Slot& slot, const Value* elem_idx,
                    const Mask& mask);

  /// Global-buffer element access, charges included. Load when `store` is
  /// null (fills `out`), store otherwise.
  void buffer_access(std::int32_t slot, const std::string& name, LaneView idx,
                     const Mask& mask, const LaneView* store, Value* out,
                     SourceLoc loc);
  /// Shared-array access on pre-flattened indices; bumps the sanitizer's
  /// access sequence and emits race / uninit reports.
  void shared_access(std::int32_t slot, const std::string& name,
                     const Value* flat, const Mask& mask,
                     const LaneView* store, Value* out, SourceLoc loc);
  /// Local / register / constant array access on pre-flattened indices
  /// (the charge dispatch on the address space included).
  void local_access(std::int32_t slot, const std::string& name,
                    const Value* flat, const Mask& mask,
                    const LaneView* store, Value* out, SourceLoc loc);

  /// One dimension of a (possibly multi-dim) index flatten: bounds-checks
  /// active lanes against `dim` and accumulates flat = flat * dim + i
  /// (`first` resets instead). The per-dim ALU charge for d > 0 is the
  /// caller's, emitted before this check.
  void flatten_dim(Value* flat, LaneView idx, std::int64_t dim, bool first,
                   const Mask& mask, SourceLoc loc);

  // ---------------- scalar variable paths ----------------
  /// Everything a scalar variable read does except producing values
  /// (the VM reads the slot's `data` in place): liveness /
  /// pointer-as-value / array-without-index errors and the sanitizer's
  /// uninit-read check.
  void var_read_check(std::int32_t slot_id, const std::string& name,
                      const Mask& mask, SourceLoc loc);
  /// Scalar variable assignment target: slot_at + assignability errors +
  /// ALU charge + masked coerced store with shadow marking.
  void store_var(std::int32_t slot_id, const std::string& name,
                 const Mask& mask, LaneView val, SourceLoc loc);
  /// DeclStmt scalar initializer: ALU charge + masked coerced store with
  /// shadow marking into an already-declared slot.
  void decl_scalar_init(const ir::DeclStmt& d, const Mask& mask,
                        LaneView val);
  /// One brace-initializer element (coerced lane-0 value broadcast into
  /// shared storage or all lanes' element e).
  void decl_fill(const ir::DeclStmt& d, std::size_t e, Value raw);
  /// Brace initializers zero-fill the tail in C, so the whole array is
  /// marked initialized for the sanitizer (no-op when it is off).
  void decl_shadow_all(const ir::DeclStmt& d);

  // ---------------- operators (charges included) ----------------
  void do_binop(ir::BinOp op, LaneView a, LaneView b, const Mask& mask,
                Value* out, SourceLoc loc);
  /// Compound-assignment combine: fixed ALU charge (never the div/mod
  /// weights) + apply.
  void do_compound(ir::BinOp op, LaneView oldv, LaneView rhs,
                   const Mask& mask, Value* out, SourceLoc loc);
  void do_unop(ir::UnOp op, LaneView a, const Mask& mask, Value* out);
  void do_cast(ir::ScalarType to, LaneView a, const Mask& mask, Value* out);
  void do_select(LaneView c, LaneView a, LaneView b, const Mask& mask,
                 Value* out);
  /// Math builtin `fn` (sim/ops.hpp); unary builtins ignore `y`.
  void do_math(Builtin fn, LaneView x, LaneView y, const Mask& mask,
               Value* out);

  // ---------------- builtins with shared semantics ----------------
  /// __syncthreads(): counters, charges, barrier bookkeeping.
  void do_sync(const Mask& mask, SourceLoc loc);
  /// Fills `broad` with all lanes of every warp active under `mask` (the
  /// mask a shfl's source argument is evaluated under).
  void make_broad_mask(const Mask& mask, Mask& broad);
  /// __shfl family body (after the caller's sm-version / arity checks and
  /// argument evaluation): selection, clamping, hazard reports and the
  /// post-hoc source-lane init check. `var_slot`/`var_name` describe the
  /// first argument when it is a plain variable reference (pass
  /// kSlotUnbound / nullptr otherwise). `var` must cover every lane of
  /// every active warp (it was evaluated under the broadened mask).
  void do_shfl(Builtin b, const std::string& callee, LaneView var,
               LaneView sel, LaneView width, const Mask& mask, Value* out,
               SourceLoc loc, std::int32_t var_slot,
               const std::string* var_name);

  // ---------------- sanitizer hooks ----------------
  /// Shadow state for one shared-memory word.
  struct SharedShadow {
    bool init = false;
    // Same-vector-access write tracking (lockstep-mode races).
    std::uint64_t write_access = 0;
    int writer_lane = -1;
    Value written;
    // Barrier-interval tracking (portable-mode races). A warp's barrier
    // generation is its arrival count; warp id -1 = none, -2 = several.
    std::uint64_t write_gen = 0;
    int writer_warp = -1;
    std::uint64_t read_gen = 0;
    int reader_warp = -1;
    SourceLoc write_loc;
  };

  [[nodiscard]] bool portable_races() const;

  [[nodiscard]] static bool value_eq(Value a, Value b) {
    if (a.tag != b.tag) return a.as_f() == b.as_f();
    return a.is_float() ? a.f == b.f : a.i == b.i;
  }

  void san_report(HazardKind kind, SourceLoc loc, int lane, std::string msg);
  void note_shared_write(const Slot& slot, const std::string& name,
                         std::size_t idx, int lane, Value val, SourceLoc loc);
  void note_shared_read(const Slot& slot, const std::string& name,
                        std::size_t idx, int lane, SourceLoc loc);
  /// Kepler's bar.sync counts *warp* arrivals: a warp arrives when >= 1 of
  /// its lanes executes the barrier, so partial masks inside one warp are
  /// fine, but a warp whose live lanes all branch around the barrier never
  /// arrives and the block deadlocks on real hardware.
  void note_barrier(SourceLoc loc, const Mask& mask);

  // ---------------- variable helpers ----------------
  /// Resolves a bound slot id to live storage. Geometry codes land here
  /// only from contexts where a geometry name is invalid (array base,
  /// assignment target) and get the same "undeclared" error the old map
  /// lookup produced.
  Slot& slot_at(std::int32_t s, const std::string& name, SourceLoc loc);

  /// Declares (or re-declares, for loop bodies) a variable.
  void declare(const ir::DeclStmt& d);

  [[nodiscard]] std::size_t first_active(const Mask& mask) const {
    for (int l = 0; l < nlanes_; ++l)
      if (mask[static_cast<std::size_t>(l)]) return static_cast<std::size_t>(l);
    return 0;
  }

  /// Cold path for the division/modulo faults: throws "<text> at <loc>".
  /// Out of line so the string construction doesn't bloat the inlined
  /// per-lane operator body.
  [[noreturn]] static void binop_fail(const char* text, SourceLoc loc);

  /// Lane loop for one operator with the op as a compile-time constant,
  /// so the inlined apply_binop collapses to a single case — operator
  /// execution is the hottest path in the VM and must not pay a
  /// 19-way switch per lane.
  template <ir::BinOp kOp>
  void binop_lanes(LaneView a, LaneView b, const Mask& mask, Value* out,
                   SourceLoc loc);

  /// Runtime-op entry: one switch per statement, then binop_lanes.
  void dispatch_binop(ir::BinOp op, LaneView a, LaneView b, const Mask& mask,
                      Value* out, SourceLoc loc);

  static constexpr std::uint64_t kLocalSpaceBase = 1ULL << 40;

  const DeviceSpec& spec_;
  DeviceMemory& mem_;
  const Interpreter::Options& opt_;
  const BoundKernel& bound_;
  const ir::Kernel& kernel_;
  const LaunchConfig& cfg_;
  Dim3 block_idx_;
  std::int64_t flat_block_ = 0;
  std::int64_t max_steps_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t steps_ = 0;
  std::vector<std::pair<SourceLoc, std::int64_t>> loop_stack_;
  int nlanes_;
  int nwarps_;
  L1Cache l1_;

  /// Flat variable frame, indexed by the binder's slot ids.
  std::vector<Slot> frame_;
  /// Precomputed geometry lane vectors (threadIdx.x, ..., gridDim.z).
  Lanes geom_[kGeomCount];
  Mask returned_;
  BlockSanitizer* san_ = nullptr;
  std::unordered_map<std::uint64_t, SharedShadow> smem_shadow_;
  std::vector<std::uint64_t> warp_gen_;  // barrier arrivals per warp
  std::uint64_t access_seq_ = 0;         // one id per shared vector access
  int shfl_arg_depth_ = 0;  // suppress uninit checks under shfl's broad mask
  std::vector<double> warp_issue_;
  std::vector<double> warp_latency_;
  std::vector<double> warp_pending_;
  std::uint64_t smem_word_cursor_ = 0;
  std::uint64_t local_word_cursor_ = 0;

  std::int64_t global_transactions_ = 0;
  std::int64_t local_transactions_ = 0;
  std::int64_t local_l1_misses_ = 0;
  std::int64_t dram_transactions_ = 0;
  std::int64_t smem_accesses_ = 0;
  std::int64_t smem_replays_ = 0;
  std::int64_t shfl_ops_ = 0;
  std::int64_t sync_ops_ = 0;
  std::int64_t divergent_branches_ = 0;
};

}  // namespace cudanp::sim::exec
