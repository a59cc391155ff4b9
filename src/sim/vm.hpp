// Bytecode VM: the one dispatch loop every kernel execution runs.
//
// Machine<Core> executes the flat instruction stream produced by
// sim/bytecode.cpp over SoA lane state — virtual registers are contiguous
// per-lane vectors, masks live on a preallocated stack sized by the
// lowering — so a block pays no per-node heap allocation and no
// recursion. The loop owns the program counter, the register file, the
// mask stack and the structured control flow; `Core` supplies the value
// domain: its lane type, the per-block state and one hook per
// instruction that reads or produces values.
//
// Two cores instantiate it:
//   - exec::BlockCore (sim/exec_core.hpp) over Value lanes: the
//     simulator, with charges, watchdog, sanitizer and device memory;
//   - the symbolic core (sim/symvm.cpp) over SymArena node ids: symbolic
//     certification (sim/symexec.hpp), which folds the branch predicate
//     of a data-dependent `if` into select nodes where the simulator
//     would split the mask.
//
// Implementation detail of sim/; include only from the interpreter, the
// two cores and tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/exec_core.hpp"
#include "sim/interpreter.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"

namespace cudanp::sim::vm {

/// The dispatch loop over one block. `Core` provides `Lane`, `kNoLane`
/// (initial register contents), `nlanes_`, `returned_`,
/// `shfl_arg_depth_` and the hooks the switch below calls.
template <class Core>
class Machine final : public Core {
 public:
  using Lane = typename Core::Lane;
  using View = exec::LaneViewOf<Lane>;

  template <class... CoreArgs>
  explicit Machine(const bytecode::Program& program, CoreArgs&&... args)
      : Core(std::forward<CoreArgs>(args)...),
        prog_(program),
        regs_(static_cast<std::size_t>(program.num_regs) * lanes(),
              Core::kNoLane),
        masks_(static_cast<std::size_t>(program.max_mask_depth) + 1,
               exec::Mask(lanes(), 0)),
        scratch_(lanes(), 0) {}

  /// Runs the program from its first instruction with every lane active.
  void run() {
    std::fill(masks_[0].begin(), masks_[0].end(), std::uint8_t{1});
    dispatch();
  }

 private:
  using Mask = exec::Mask;
  using Instr = bytecode::Instr;
  using Op = bytecode::Op;
  using Operand = bytecode::Operand;

  [[nodiscard]] std::size_t lanes() const {
    return static_cast<std::size_t>(this->nlanes_);
  }

  /// The execution mask of the innermost active region.
  [[nodiscard]] Mask& cur() { return masks_[static_cast<std::size_t>(mdepth_)]; }

  [[nodiscard]] Lane* reg(std::int32_t r) {
    return regs_.data() + static_cast<std::size_t>(r) * lanes();
  }

  /// Resolves an operand to a zero-copy lane view; every kind but a
  /// register is the core's.
  [[nodiscard]] View src(const Operand& o) {
    if (o.kind == Operand::Kind::kReg) return View{reg(o.id), Lane{}};
    return this->operand(o);
  }

  [[nodiscard]] const std::string& name_at(std::int32_t n) const {
    return prog_.names[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] const ir::DeclStmt& decl_at(std::int64_t d) const {
    return *prog_.decls[static_cast<std::size_t>(d)];
  }

  /// Clears returned lanes from `m`; true if it emptied.
  /// Fast path: masks only empty through returns (jumps handle every
  /// other emptying), so an untouched returned_ means nothing to do.
  [[nodiscard]] bool guard_returned(Mask& m) {
    if (!returned_any_) return false;
    bool alive = false;
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (this->returned_[l]) m[l] = 0;
      alive |= m[l] != 0;
    }
    return !alive;
  }

  void dispatch() {
    const Instr* code = prog_.code.data();
    std::size_t pc = 0;
    for (;;) {
      const Instr& ins = code[pc];
      switch (ins.op) {
        case Op::kHalt:
          return;
        case Op::kGuard:
          if (guard_returned(cur())) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kStep:
          this->count_step(ins.loc);
          break;
        case Op::kLeafBegin:
          this->begin_leaf_stmt();
          break;
        case Op::kLeafEnd:
          this->end_leaf_stmt();
          break;
        case Op::kCharge:
          this->charge_alu(cur());
          break;
        case Op::kTrap:
          this->trap(name_at(ins.name));
          break;
        case Op::kVarGuard:
          this->var_read_check(ins.slot, name_at(ins.name), cur(), ins.loc);
          break;
        case Op::kRequireLive:
          this->require_live(ins.slot, name_at(ins.name), ins.loc);
          break;
        case Op::kStoreVar:
          this->store_var(ins.slot, name_at(ins.name), cur(), src(ins.a),
                          ins.loc);
          break;
        case Op::kDeclare:
          this->declare(decl_at(ins.imm));
          break;
        case Op::kDeclInit:
          this->decl_scalar_init(decl_at(ins.imm), cur(), src(ins.a));
          break;
        case Op::kDeclFill:
          this->decl_fill(decl_at(ins.imm), static_cast<std::size_t>(ins.dst),
                          src(ins.a).at(0));
          break;
        case Op::kDeclShadow:
          this->decl_shadow_all(decl_at(ins.imm));
          break;
        case Op::kMaskLane0: {
          Mask& m = masks_[static_cast<std::size_t>(mdepth_) + 1];
          std::fill(m.begin(), m.end(), std::uint8_t{0});
          m[0] = 1;
          ++mdepth_;
          break;
        }
        case Op::kMaskPop:
          --mdepth_;
          break;
        case Op::kBin:
          this->do_binop(static_cast<ir::BinOp>(ins.aux), src(ins.a),
                         src(ins.b), cur(), reg(ins.dst), ins.loc);
          break;
        case Op::kCompound:
          this->do_compound(static_cast<ir::BinOp>(ins.aux), src(ins.a),
                            src(ins.b), cur(), reg(ins.dst), ins.loc);
          break;
        case Op::kUn:
          this->do_unop(static_cast<ir::UnOp>(ins.aux), src(ins.a), cur(),
                        reg(ins.dst));
          break;
        case Op::kCast:
          this->do_cast(static_cast<ir::ScalarType>(ins.aux), src(ins.a),
                        cur(), reg(ins.dst));
          break;
        case Op::kSelect:
          this->do_select(src(ins.a), src(ins.b), src(ins.c), cur(),
                          reg(ins.dst));
          break;
        case Op::kMath:
          this->do_math(static_cast<Builtin>(ins.aux), src(ins.a), src(ins.b),
                        cur(), reg(ins.dst));
          break;
        case Op::kSync:
          this->do_sync(cur(), ins.loc);
          break;
        case Op::kShflGuard:
          this->shfl_guard();
          break;
        case Op::kShflArgBegin: {
          Mask& broad = masks_[static_cast<std::size_t>(mdepth_) + 1];
          this->make_broad_mask(cur(), broad);
          ++mdepth_;
          ++this->shfl_arg_depth_;
          break;
        }
        case Op::kShflArgEnd:
          --this->shfl_arg_depth_;
          --mdepth_;
          break;
        case Op::kShfl:
          this->do_shfl(static_cast<Builtin>(ins.aux), name_at(ins.name),
                        src(ins.a), src(ins.b), src(ins.c), cur(),
                        reg(ins.dst), ins.loc, ins.slot,
                        ins.imm >= 0
                            ? &name_at(static_cast<std::int32_t>(ins.imm))
                            : nullptr);
          break;
        case Op::kFlatten:
          this->flatten_dim(reg(ins.dst), src(ins.a), ins.imm, ins.aux != 0,
                            cur(), ins.loc);
          break;
        case Op::kBufLoad:
          this->buffer_access(ins.slot, name_at(ins.name), src(ins.a), cur(),
                              nullptr, reg(ins.dst), ins.loc);
          break;
        case Op::kBufStore: {
          View sv = src(ins.b);
          this->buffer_access(ins.slot, name_at(ins.name), src(ins.a), cur(),
                              &sv, nullptr, ins.loc);
          break;
        }
        case Op::kSharedLoad:
          this->shared_access(ins.slot, name_at(ins.name), src(ins.a).vec,
                              cur(), nullptr, reg(ins.dst), ins.loc);
          break;
        case Op::kSharedStore: {
          View sv = src(ins.b);
          this->shared_access(ins.slot, name_at(ins.name), src(ins.a).vec,
                              cur(), &sv, nullptr, ins.loc);
          break;
        }
        case Op::kLocalLoad:
          this->local_access(ins.slot, name_at(ins.name), src(ins.a).vec,
                             cur(), nullptr, reg(ins.dst), ins.loc);
          break;
        case Op::kLocalStore: {
          View sv = src(ins.b);
          this->local_access(ins.slot, name_at(ins.name), src(ins.a).vec,
                             cur(), &sv, nullptr, ins.loc);
          break;
        }
        case Op::kIfSplit: {
          const bool has_else = ins.aux != 0;
          Mask& tm =
              masks_[static_cast<std::size_t>(mdepth_) + (has_else ? 2 : 1)];
          Mask& em = has_else ? masks_[static_cast<std::size_t>(mdepth_) + 1]
                              : scratch_;
          this->if_split(pc, src(ins.a), cur(), tm, em);
          mdepth_ += has_else ? 2 : 1;
          if (!exec::any(tm)) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        }
        case Op::kIfElse:
          // Pop the then mask; the else mask underneath becomes current.
          --mdepth_;
          this->if_else(ins);
          if (!exec::any(cur())) {
            --mdepth_;
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kIfEnd:
          --mdepth_;
          this->if_end(ins);
          break;
        case Op::kLoopEnter:
          masks_[static_cast<std::size_t>(mdepth_) + 1] = cur();
          ++mdepth_;
          this->loop_enter(ins.loc);
          break;
        case Op::kLoopBackedge:
          this->loop_backedge(ins.loc);
          break;
        case Op::kMaskAnd:
          this->mask_and(cur(), src(ins.a), ins.aux != 0);
          break;
        case Op::kLoopCheck:
          if (!exec::any(cur())) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          this->loop_valve(ins);
          break;
        case Op::kLoopLatchFor:
          // Lanes that returned inside the body stop iterating.
          if (guard_returned(cur())) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kClearReturned:
          // The while latch loops back to the condition unconditionally.
          (void)guard_returned(cur());
          break;
        case Op::kLoopExit:
          --mdepth_;
          this->loop_exit();
          break;
        case Op::kJump:
          pc = static_cast<std::size_t>(ins.target);
          continue;
        case Op::kReturn: {
          Mask& m = cur();
          this->on_return(m);
          for (std::size_t l = 0; l < lanes(); ++l)
            if (m[l]) this->returned_[l] = 1;
          returned_any_ = true;
          break;
        }
      }
      ++pc;
    }
  }

  const bytecode::Program& prog_;
  /// Virtual registers, lane-major: reg r covers regs_[r*nlanes .. +nlanes).
  std::vector<Lane> regs_;
  /// Preallocated mask stack; masks_[mdepth_] is the active mask.
  std::vector<Mask> masks_;
  /// Else-side mask of an else-less if.
  Mask scratch_;
  int mdepth_ = 0;
  bool returned_any_ = false;
};

/// Runs one block of a launch over the lowered program and returns its
/// stats; hazards go to `san` (when non-null), failures throw SimError.
[[nodiscard]] KernelStats run_block(const bytecode::Program& program,
                                    const DeviceSpec& spec, DeviceMemory& mem,
                                    const Interpreter::Options& opt,
                                    const BoundKernel& bound,
                                    const LaunchConfig& cfg, Dim3 block_idx,
                                    int resident_blocks,
                                    exec::BlockSanitizer* san,
                                    std::int64_t flat_block,
                                    std::int64_t max_steps);

}  // namespace cudanp::sim::vm
