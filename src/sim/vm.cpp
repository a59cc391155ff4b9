#include "sim/vm.hpp"

#include <algorithm>
#include <string>

#include "sim/fault.hpp"
#include "sim/sanitizer.hpp"

namespace cudanp::sim::vm {

namespace {

using bytecode::Instr;
using bytecode::Op;
using bytecode::Operand;
using exec::any;
using exec::LaneView;
using exec::Mask;
using exec::Slot;

class VmExec : public exec::BlockCore {
 public:
  VmExec(const bytecode::Program& program, const DeviceSpec& spec,
         DeviceMemory& mem, const Interpreter::Options& opt,
         const BoundKernel& bound, const LaunchConfig& cfg, Dim3 block_idx,
         int resident_blocks, exec::BlockSanitizer* san,
         std::int64_t flat_block, std::int64_t max_steps)
      : BlockCore(spec, mem, opt, bound, cfg, block_idx, resident_blocks, san,
                  flat_block, max_steps),
        prog_(program),
        regs_(static_cast<std::size_t>(program.num_regs) *
              static_cast<std::size_t>(nlanes_)),
        masks_(static_cast<std::size_t>(program.max_mask_depth) + 1,
               Mask(static_cast<std::size_t>(nlanes_), 0)),
        scratch_(static_cast<std::size_t>(nlanes_), 0),
        iters_(static_cast<std::size_t>(program.max_loop_depth), 0) {}

  KernelStats run() {
    if (opt_.fault && opt_.fault->should_stall(flat_block_)) stall();
    std::fill(masks_[0].begin(), masks_[0].end(), std::uint8_t{1});
    dispatch();
    return collect_stats();
  }

 private:
  /// The execution mask of the innermost active region.
  [[nodiscard]] Mask& cur() { return masks_[static_cast<std::size_t>(mdepth_)]; }

  [[nodiscard]] Value* reg(std::int32_t r) {
    return regs_.data() +
           static_cast<std::size_t>(r) * static_cast<std::size_t>(nlanes_);
  }

  /// Resolves an operand to a zero-copy lane view.
  [[nodiscard]] LaneView src(const Operand& o) {
    switch (o.kind) {
      case Operand::Kind::kReg:
        return LaneView{reg(o.id), Value{}};
      case Operand::Kind::kImm:
        return LaneView{nullptr, o.imm};
      case Operand::Kind::kGeom:
        return LaneView{geom_[o.id].data(), Value{}};
      case Operand::Kind::kUniform:
        return LaneView{nullptr,
                        frame_[static_cast<std::size_t>(o.id)].data[0]};
      case Operand::Kind::kSlotData:
        return LaneView{frame_[static_cast<std::size_t>(o.id)].data.data(),
                        Value{}};
      case Operand::Kind::kNone:
        break;
    }
    return LaneView{};
  }

  [[nodiscard]] const std::string& name_at(std::int32_t n) const {
    return prog_.names[static_cast<std::size_t>(n)];
  }

  /// Clears returned lanes from the current mask; true if it emptied.
  /// Fast path: masks only empty through returns (jumps handle every
  /// other emptying), so an untouched returned_ means nothing to do.
  [[nodiscard]] bool guard_returned() {
    if (!returned_any_) return false;
    Mask& m = cur();
    bool alive = false;
    for (int l = 0; l < nlanes_; ++l) {
      if (returned_[static_cast<std::size_t>(l)])
        m[static_cast<std::size_t>(l)] = 0;
      alive |= m[static_cast<std::size_t>(l)] != 0;
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
          if (guard_returned()) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kStep:
          count_step(ins.loc);
          break;
        case Op::kLeafBegin:
          begin_leaf_stmt();
          break;
        case Op::kLeafEnd:
          end_leaf_stmt();
          break;
        case Op::kCharge:
          charge_issue(cur(), opt_.timing.weights.alu);
          break;
        case Op::kTrap:
          throw SimError(name_at(ins.name));
        case Op::kVarGuard:
          var_read_check(ins.slot, name_at(ins.name), cur(), ins.loc);
          break;
        case Op::kRequireLive:
          (void)slot_at(ins.slot, name_at(ins.name), ins.loc);
          break;
        case Op::kStoreVar:
          store_var(ins.slot, name_at(ins.name), cur(), src(ins.a), ins.loc);
          break;
        case Op::kDeclare:
          declare(*prog_.decls[static_cast<std::size_t>(ins.imm)]);
          break;
        case Op::kDeclInit: {
          const ir::DeclStmt& d =
              *prog_.decls[static_cast<std::size_t>(ins.imm)];
          decl_scalar_init(frame_[static_cast<std::size_t>(d.sim_slot)],
                           d.type.scalar, cur(), src(ins.a));
          break;
        }
        case Op::kDeclFill: {
          const ir::DeclStmt& d =
              *prog_.decls[static_cast<std::size_t>(ins.imm)];
          decl_fill(frame_[static_cast<std::size_t>(d.sim_slot)], d.type,
                    static_cast<std::size_t>(ins.dst), src(ins.a).at(0));
          break;
        }
        case Op::kDeclShadow: {
          const ir::DeclStmt& d =
              *prog_.decls[static_cast<std::size_t>(ins.imm)];
          decl_shadow_all(frame_[static_cast<std::size_t>(d.sim_slot)],
                          d.type);
          break;
        }
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
          do_binop(static_cast<ir::BinOp>(ins.aux), src(ins.a), src(ins.b),
                   cur(), reg(ins.dst), ins.loc);
          break;
        case Op::kCompound:
          do_compound(static_cast<ir::BinOp>(ins.aux), src(ins.a), src(ins.b),
                      cur(), reg(ins.dst), ins.loc);
          break;
        case Op::kUn:
          do_unop(static_cast<ir::UnOp>(ins.aux), src(ins.a), cur(),
                  reg(ins.dst));
          break;
        case Op::kCast:
          do_cast(static_cast<ir::ScalarType>(ins.aux), src(ins.a), cur(),
                  reg(ins.dst));
          break;
        case Op::kSelect:
          do_select(src(ins.a), src(ins.b), src(ins.c), cur(), reg(ins.dst));
          break;
        case Op::kMath:
          do_math(*ops::math_op(static_cast<Builtin>(ins.aux)), src(ins.a),
                  src(ins.b), cur(), reg(ins.dst));
          break;
        case Op::kSync:
          do_sync(cur(), ins.loc);
          break;
        case Op::kShflGuard:
          if (spec_.sm_version < 30)
            throw SimError("__shfl requires sm_30+ (device is sm_" +
                           std::to_string(spec_.sm_version) + ")");
          break;
        case Op::kShflArgBegin: {
          Mask& broad = masks_[static_cast<std::size_t>(mdepth_) + 1];
          make_broad_mask(cur(), broad);
          ++mdepth_;
          ++shfl_arg_depth_;
          break;
        }
        case Op::kShflArgEnd:
          --shfl_arg_depth_;
          --mdepth_;
          break;
        case Op::kShfl:
          do_shfl(static_cast<Builtin>(ins.aux), name_at(ins.name),
                  src(ins.a), src(ins.b), src(ins.c), cur(), reg(ins.dst),
                  ins.loc, ins.slot,
                  ins.imm >= 0 ? &name_at(static_cast<std::int32_t>(ins.imm))
                               : nullptr);
          break;
        case Op::kFlatten:
          flatten_dim(reg(ins.dst), src(ins.a), ins.imm, ins.aux != 0, cur(),
                      ins.loc);
          break;
        case Op::kBufLoad:
          buffer_access(frame_[static_cast<std::size_t>(ins.slot)],
                        name_at(ins.name), src(ins.a), cur(), nullptr,
                        reg(ins.dst), ins.loc);
          break;
        case Op::kBufStore: {
          LaneView sv = src(ins.b);
          buffer_access(frame_[static_cast<std::size_t>(ins.slot)],
                        name_at(ins.name), src(ins.a), cur(), &sv, nullptr,
                        ins.loc);
          break;
        }
        case Op::kSharedLoad:
          shared_access(frame_[static_cast<std::size_t>(ins.slot)],
                        name_at(ins.name), src(ins.a).vec, cur(), nullptr,
                        reg(ins.dst), ins.loc);
          break;
        case Op::kSharedStore: {
          LaneView sv = src(ins.b);
          shared_access(frame_[static_cast<std::size_t>(ins.slot)],
                        name_at(ins.name), src(ins.a).vec, cur(), &sv,
                        nullptr, ins.loc);
          break;
        }
        case Op::kLocalLoad:
          local_access(frame_[static_cast<std::size_t>(ins.slot)],
                       name_at(ins.name), src(ins.a).vec, cur(), nullptr,
                       reg(ins.dst), ins.loc);
          break;
        case Op::kLocalStore: {
          LaneView sv = src(ins.b);
          local_access(frame_[static_cast<std::size_t>(ins.slot)],
                       name_at(ins.name), src(ins.a).vec, cur(), &sv, nullptr,
                       ins.loc);
          break;
        }
        case Op::kIfSplit: {
          const bool has_else = ins.aux != 0;
          Mask& m = cur();
          Mask& tm =
              masks_[static_cast<std::size_t>(mdepth_) + (has_else ? 2 : 1)];
          Mask& em =
              has_else ? masks_[static_cast<std::size_t>(mdepth_) + 1]
                       : scratch_;
          LaneView c = src(ins.a);
          for (int l = 0; l < nlanes_; ++l) {
            std::size_t i = static_cast<std::size_t>(l);
            bool active = m[i] != 0;
            bool t = active && c.at(i).truthy();
            tm[i] = t ? 1 : 0;
            em[i] = (active && !t) ? 1 : 0;
          }
          for_each_active_warp(m, [&](int, int lo, int hi) {
            bool t = false, e = false;
            for (int l = lo; l < hi; ++l) {
              t |= tm[static_cast<std::size_t>(l)] != 0;
              e |= em[static_cast<std::size_t>(l)] != 0;
            }
            if (t && e) ++divergent_branches_;
          });
          mdepth_ += has_else ? 2 : 1;
          if (!any(tm)) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        }
        case Op::kIfElse:
          // Pop the then mask; the else mask underneath becomes current.
          --mdepth_;
          if (!any(cur())) {
            --mdepth_;
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kIfEnd:
          --mdepth_;
          break;
        case Op::kLoopEnter:
          masks_[static_cast<std::size_t>(mdepth_) + 1] = cur();
          ++mdepth_;
          loop_stack_.emplace_back(ins.loc, 0);
          iters_[static_cast<std::size_t>(ldepth_++)] = 0;
          break;
        case Op::kLoopBackedge:
          // Back-edges are budgeted so even empty or condition-only spins
          // trip the watchdog.
          count_step(ins.loc);
          ++loop_stack_.back().second;
          break;
        case Op::kMaskAnd: {
          Mask& m = cur();
          LaneView c = src(ins.a);
          for (int l = 0; l < nlanes_; ++l) {
            std::size_t i = static_cast<std::size_t>(l);
            if (m[i] && !c.at(i).truthy()) m[i] = 0;
          }
          break;
        }
        case Op::kLoopCheck:
          if (!any(cur())) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          if (++iters_[static_cast<std::size_t>(ldepth_ - 1)] >
              opt_.limits.max_loop_iterations)
            throw SimError(std::string(ins.aux ? "while loop" : "loop") +
                           " exceeded max iterations at " + ins.loc.str());
          break;
        case Op::kLoopLatchFor:
          // Lanes that returned inside the body stop iterating.
          if (guard_returned()) {
            pc = static_cast<std::size_t>(ins.target);
            continue;
          }
          break;
        case Op::kClearReturned:
          // The while latch loops back to the condition unconditionally.
          if (returned_any_) {
            Mask& m = cur();
            for (int l = 0; l < nlanes_; ++l)
              if (returned_[static_cast<std::size_t>(l)])
                m[static_cast<std::size_t>(l)] = 0;
          }
          break;
        case Op::kLoopExit:
          --mdepth_;
          loop_stack_.pop_back();
          --ldepth_;
          break;
        case Op::kJump:
          pc = static_cast<std::size_t>(ins.target);
          continue;
        case Op::kReturn: {
          Mask& m = cur();
          for (int l = 0; l < nlanes_; ++l)
            if (m[static_cast<std::size_t>(l)])
              returned_[static_cast<std::size_t>(l)] = 1;
          returned_any_ = true;
          break;
        }
      }
      ++pc;
    }
  }

  const bytecode::Program& prog_;
  /// Virtual registers, lane-major: reg r covers regs_[r*nlanes .. +nlanes).
  std::vector<Value> regs_;
  /// Preallocated mask stack; masks_[mdepth_] is the active mask.
  std::vector<Mask> masks_;
  /// Else-side mask of an else-less if (divergence counting only).
  Mask scratch_;
  /// Per-depth loop iteration counters (the max_loop_iterations valve).
  std::vector<std::int64_t> iters_;
  int mdepth_ = 0;
  int ldepth_ = 0;
  bool returned_any_ = false;
};

}  // namespace

KernelStats run_block(const bytecode::Program& program, const DeviceSpec& spec,
                      DeviceMemory& mem, const Interpreter::Options& opt,
                      const BoundKernel& bound, const LaunchConfig& cfg,
                      Dim3 block_idx, int resident_blocks,
                      exec::BlockSanitizer* san, std::int64_t flat_block,
                      std::int64_t max_steps) {
  VmExec block(program, spec, mem, opt, bound, cfg, block_idx,
               resident_blocks, san, flat_block, max_steps);
  return block.run();
}

}  // namespace cudanp::sim::vm
