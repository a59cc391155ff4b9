// Symbolic value domain of the bytecode VM: sym_execute (sim/symexec.hpp).
//
// SymCore implements vm::Machine's hooks (sim/vm.hpp) over SymArena node
// ids instead of Values, so certification runs the kernel's one lowered
// form through the simulator's one dispatch loop. Every arithmetic
// instruction builds (or folds to) a hash-consed node; control flow and
// indexing must fold to constants, except that an `if` on a symbolic
// condition runs both arms — the then arm on the current frame, the else
// arm on a snapshot taken at kIfSplit — and kIfEnd merges the per-lane
// registers with select(cond, then, else) nodes. Global stores inside
// such an arm are wrapped as select(pred, new, old) at once. Whatever
// the model cannot express aborts the run (Unsupported, fault = false);
// a fault the simulator would raise on any input aborts it with
// fault = true (SymFault).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/device.hpp"
#include "sim/ops.hpp"
#include "sim/symexec.hpp"
#include "sim/vm.hpp"

namespace cudanp::sim {

namespace {

using ir::BinOp;
using ir::ScalarType;
using ir::UnOp;
using exec::Mask;
using Ids = std::vector<std::uint32_t>;
using View = exec::LaneViewOf<std::uint32_t>;

constexpr std::uint32_t kInv = SymArena::kInvalid;

/// A construct outside the symbolic model; the run ends with
/// ok = fault = false.
struct Unsupported {
  std::string reason;
};

[[noreturn]] void unsupported(std::string reason) {
  throw Unsupported{std::move(reason)};
}
[[noreturn]] void fault(std::string reason) {
  throw SymFault{std::move(reason)};
}

struct CellMeta {
  std::int64_t wepoch = -1, repoch = -1;  // within the current block
  int wwarp = -1, rwarp = -1;             // rwarp -2 = several warps
  std::int64_t wseq = -1;                 // same-instruction store conflicts
  std::int64_t wblock = -1;               // globals: last writer block
};

struct Var {
  ir::Type type;
  bool live = false;
  bool is_buffer = false;     // pointer param (its slot is its arg index)
  bool uniform = false;       // scalar param (read-only)
  bool block_scoped = false;  // shared array: one copy per block
  Ids scalar;                 // per-lane scalar ids
  Ids cells;                  // block_scoped: [elems]; else [lane*elems+e]
  std::vector<CellMeta> meta;  // shared arrays: race tracking per cell
};

struct GBuf {
  ScalarType type = ScalarType::kFloat;
  Ids cells;
  std::vector<CellMeta> meta;
};

/// State of one symbolic launch that outlives its blocks: global buffer
/// contents and writers, race notes and the grid-wide step budget.
struct SymGrid {
  SymGrid(const BoundKernel& b, Dim3 g, Dim3 bl,
          const std::vector<SymArg>& a, SymArena& arena,
          const SymExecOptions& o)
      : bound(b), grid(g), block(bl), args(a), ar(arena), opt(o) {}

  const BoundKernel& bound;
  Dim3 grid, block;
  const std::vector<SymArg>& args;
  SymArena& ar;
  const SymExecOptions& opt;
  int warp = DeviceSpec{}.warp_size;
  int nlanes = 0;
  std::vector<GBuf> globals;
  std::vector<SymRace> races;
  std::int64_t steps = 0;

  /// Validates the launch and seeds the global buffers.
  void setup() {
    const ir::Kernel& kernel = *bound.kernel;
    if (grid.x <= 0 || grid.y <= 0 || grid.z <= 0 || block.x <= 0 ||
        block.y <= 0 || block.z <= 0)
      fault("invalid launch dimensions");
    if (block.count() > 1024) fault("block too large");
    nlanes = static_cast<int>(block.count());
    if (args.size() != kernel.params.size())
      fault("kernel '" + kernel.name + "' expects " +
            std::to_string(kernel.params.size()) + " args, got " +
            std::to_string(args.size()));
    globals.resize(args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      const ir::Param& p = kernel.params[i];
      const SymArg& a = args[i];
      if (!p.type.is_pointer) continue;
      GBuf& g = globals[i];
      g.type = p.type.scalar;
      g.cells.resize(static_cast<std::size_t>(a.elems), kInv);
      g.meta.assign(static_cast<std::size_t>(a.elems), CellMeta{});
      auto pi = static_cast<std::int32_t>(i);
      switch (a.kind) {
        case SymArg::Kind::kBufferSymbolic:
          if (g.type != ScalarType::kFloat)
            unsupported("arg " + std::to_string(i) + " ('" + p.name +
                        "'): symbolic buffers must be float");
          for (std::int64_t e = 0; e < a.elems; ++e)
            g.cells[static_cast<std::size_t>(e)] =
                ar.input(pi, e, ScalarType::kFloat);
          break;
        case SymArg::Kind::kBufferConcrete:
          if (static_cast<std::int64_t>(a.ints.size()) != a.elems)
            unsupported("arg " + std::to_string(i) + " ('" + p.name +
                        "'): concrete buffer contents missing");
          for (std::int64_t e = 0; e < a.elems; ++e) {
            auto ci = a.ints[static_cast<std::size_t>(e)];
            g.cells[static_cast<std::size_t>(e)] =
                g.type == ScalarType::kFloat
                    ? ar.cfloat(static_cast<double>(ci))
                    : ar.cint(ci);
          }
          break;
        case SymArg::Kind::kBufferScratch: break;  // uninitialized
        default:
          fault("arg " + std::to_string(i) + " ('" + p.name +
                "') must be a buffer");
      }
    }
  }

  void race(std::string msg) {
    if (races.size() < 64) races.push_back(SymRace{std::move(msg)});
  }
};

/// One block of a symbolic launch: vm::Machine's value domain over node
/// ids (kInv = no value).
class SymCore {
 public:
  using Lane = std::uint32_t;
  static constexpr Lane kNoLane = kInv;

  SymCore(SymGrid& g, Dim3 idx)
      : nlanes_(g.nlanes),
        returned_(static_cast<std::size_t>(g.nlanes), 0),
        g_(g),
        ar_(g.ar),
        warp_(g.warp),
        blk_(static_cast<std::int64_t>(idx.z) * g.grid.x * g.grid.y +
             static_cast<std::int64_t>(idx.y) * g.grid.x + idx.x) {
    for (auto& gb : g_.globals)
      for (auto& m : gb.meta) {
        m.wepoch = m.repoch = -1;
        m.wwarp = m.rwarp = -1;
        m.wseq = -1;
      }
    const std::size_t n = lanes();
    auto splat = [&](std::int64_t v) { return Ids(n, ar_.cint(v)); };
    for (int g0 = kGeomThreadIdxX; g0 <= kGeomThreadIdxZ; ++g0)
      geom_[g0].resize(n);
    const Dim3 b = g_.block;
    for (std::size_t l = 0; l < n; ++l) {
      const auto li = static_cast<std::int64_t>(l);
      geom_[kGeomThreadIdxX][l] = ar_.cint(li % b.x);
      geom_[kGeomThreadIdxY][l] = ar_.cint((li / b.x) % b.y);
      geom_[kGeomThreadIdxZ][l] = ar_.cint(li / (b.x * b.y));
    }
    geom_[kGeomBlockIdxX] = splat(idx.x);
    geom_[kGeomBlockIdxY] = splat(idx.y);
    geom_[kGeomBlockIdxZ] = splat(idx.z);
    geom_[kGeomBlockDimX] = splat(b.x);
    geom_[kGeomBlockDimY] = splat(b.y);
    geom_[kGeomBlockDimZ] = splat(b.z);
    geom_[kGeomGridDimX] = splat(g_.grid.x);
    geom_[kGeomGridDimY] = splat(g_.grid.y);
    geom_[kGeomGridDimZ] = splat(g_.grid.z);
    const ir::Kernel& kernel = *g_.bound.kernel;
    frame_.resize(g_.bound.num_slots());
    for (std::size_t i = 0; i < kernel.params.size(); ++i) {
      const ir::Param& p = kernel.params[i];
      const SymArg& a = g_.args[i];
      Var& v = frame_[i];  // the binder gives params slots 0..n-1
      v.type = p.type;
      v.live = true;
      if (p.type.is_pointer) {
        v.is_buffer = true;
      } else {
        v.uniform = true;
        std::uint32_t id;
        if (a.kind == SymArg::Kind::kScalarSymbolic)
          id = ar_.input(static_cast<std::int32_t>(i), -1, ScalarType::kFloat);
        else if (p.type.scalar == ScalarType::kFloat)
          id = ar_.cfloat(a.scalar.as_f());
        else
          id = ar_.cint(a.scalar.as_i());
        v.scalar.assign(n, id);
      }
    }
  }

 protected:
  // ---------------- dispatch hooks (vm::Machine) ----------------
  [[nodiscard]] View operand(const bytecode::Operand& o) {
    switch (o.kind) {
      case bytecode::Operand::Kind::kImm:
        return View{nullptr, o.imm.is_float() ? ar_.cfloat(o.imm.f)
                                              : ar_.cint(o.imm.i)};
      case bytecode::Operand::Kind::kGeom:
        return View{geom_[o.id].data(), kInv};
      case bytecode::Operand::Kind::kUniform:
        return View{nullptr, frame_[static_cast<std::size_t>(o.id)].scalar[0]};
      case bytecode::Operand::Kind::kSlotData:
        return View{frame_[static_cast<std::size_t>(o.id)].scalar.data(),
                    kInv};
      case bytecode::Operand::Kind::kReg:
      case bytecode::Operand::Kind::kNone:
        break;
    }
    return View{nullptr, kInv};
  }

  /// Structural errors fault with the simulator's own message.
  [[noreturn]] static void trap(const std::string& message) { fault(message); }

  /// One statement or loop head against the grid-wide step and node
  /// budgets.
  void count_step(const SourceLoc&) {
    if (++g_.steps > g_.opt.max_steps)
      unsupported("step budget of " + std::to_string(g_.opt.max_steps) +
                  " exhausted");
    if (static_cast<std::int64_t>(ar_.size()) > g_.opt.max_nodes)
      unsupported("expression budget of " + std::to_string(g_.opt.max_nodes) +
                  " nodes exhausted");
  }
  void begin_leaf_stmt() {}
  void end_leaf_stmt() {}
  void charge_alu(const Mask&) {}
  void loop_enter(SourceLoc) {}
  void loop_backedge(SourceLoc loc) { count_step(loc); }
  void loop_exit() {}
  void loop_valve(const bytecode::Instr&) {}

  void var_read_check(std::int32_t slot, const std::string& name,
                      const Mask& m, SourceLoc) {
    const Var& v = lookup(slot, name, "expression");
    if (v.is_buffer || v.type.is_array())
      unsupported("array '" + name + "' used as a value");
    if (shfl_arg_depth_ == 0)
      for (std::size_t l = 0; l < lanes(); ++l)
        if (m[l] && v.scalar[l] == kInv)
          unsupported("read of uninitialized variable '" + name + "'");
  }

  void require_live(std::int32_t slot, const std::string& name, SourceLoc) {
    (void)lookup(slot, name, "array access");
  }

  void store_var(std::int32_t slot, const std::string& name, const Mask& m,
                 View val, SourceLoc) {
    Var& v = lookup(slot, name, "assignment");
    if (v.is_buffer || v.type.is_array() || v.uniform)
      fault("cannot assign to '" + name + "'");
    for (std::size_t l = 0; l < lanes(); ++l)
      if (m[l]) v.scalar[l] = coerce_id(val.at(l), v.type.scalar);
  }

  /// A declaration (re-)executes as a fresh, uninitialized variable.
  void declare(const ir::DeclStmt& d) {
    if (d.sim_slot < 0)
      unsupported("internal: unbound declaration of '" + d.name +
                  "' (kernel AST modified after slot binding)");
    Var& v = frame_[static_cast<std::size_t>(d.sim_slot)];
    v.type = d.type;
    v.live = true;
    v.is_buffer = v.uniform = false;
    v.block_scoped = d.type.is_array() && d.type.space == ir::AddrSpace::kShared;
    v.scalar.clear();
    v.cells.clear();
    v.meta.clear();
    if (d.type.is_array()) {
      const auto elems = static_cast<std::size_t>(d.type.element_count());
      v.cells.assign(v.block_scoped ? elems : elems * lanes(), kInv);
      if (v.block_scoped) v.meta.assign(elems, CellMeta{});
    } else {
      v.scalar.assign(lanes(), kInv);
    }
  }

  void decl_scalar_init(const ir::DeclStmt& d, const Mask& m, View val) {
    Var& v = frame_[static_cast<std::size_t>(d.sim_slot)];
    for (std::size_t l = 0; l < lanes(); ++l)
      if (m[l]) v.scalar[l] = coerce_id(val.at(l), d.type.scalar);
  }

  /// Brace initializers are constant contents with lane-0 semantics.
  void decl_fill(const ir::DeclStmt& d, std::size_t e, Lane raw) {
    fill_element(d, e, coerce_id(raw, d.type.scalar));
  }

  /// The tail past the brace initializers zero-fills, like C.
  void decl_shadow_all(const ir::DeclStmt& d) {
    const auto elems = static_cast<std::size_t>(d.type.element_count());
    if (d.init_list.size() >= elems) return;
    const Lane zero = d.type.scalar == ScalarType::kFloat ? ar_.cfloat(0.0)
                                                          : ar_.cint(0);
    for (std::size_t e = d.init_list.size(); e < elems; ++e)
      fill_element(d, e, zero);
  }

  void do_binop(BinOp op, View a, View b, const Mask& m, Lane* out,
                SourceLoc) {
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      const Lane x = a.at(l), y = b.at(l);
      out[l] = (x == kInv || y == kInv) ? kInv : ar_.bin(op, x, y);
    }
  }

  void do_compound(BinOp op, View oldv, View rhs, const Mask& m, Lane* out,
                   SourceLoc) {
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      const Lane x = oldv.at(l), y = rhs.at(l);
      if (x == kInv || y == kInv)
        unsupported("compound assignment reads an uninitialized value");
      out[l] = ar_.bin(op, x, y);
    }
  }

  void do_unop(UnOp op, View a, const Mask& m, Lane* out) {
    for (std::size_t l = 0; l < lanes(); ++l)
      if (m[l]) out[l] = a.at(l) == kInv ? kInv : ar_.un(op, a.at(l));
  }

  void do_cast(ScalarType to, View a, const Mask& m, Lane* out) {
    for (std::size_t l = 0; l < lanes(); ++l)
      if (m[l]) out[l] = a.at(l) == kInv ? kInv : ar_.cast(to, a.at(l));
  }

  void do_select(View c, View a, View b, const Mask& m, Lane* out) {
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      const Lane x = c.at(l), y = a.at(l), z = b.at(l);
      out[l] = (x == kInv || y == kInv || z == kInv) ? kInv
                                                     : ar_.select(x, y, z);
    }
  }

  void do_math(Builtin fn, View x, View y, const Mask& m, Lane* out) {
    const bool binary = ops::math_op(fn)->arity == 2;
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      Ids kids{x.at(l)};
      if (binary) kids.push_back(y.at(l));
      const bool bad = std::find(kids.begin(), kids.end(), kInv) != kids.end();
      out[l] = bad ? kInv : ar_.call(fn, std::move(kids));
    }
  }

  /// Warp-granular arrival, like the sanitizer's note_barrier: a warp
  /// with live lanes that never arrives deadlocks on real hardware.
  void do_sync(const Mask& m, SourceLoc) {
    if (div_depth_ > 0)
      unsupported("__syncthreads under a symbolically divergent branch");
    for (int lo = 0; lo < nlanes_; lo += warp_) {
      const int hi = std::min(lo + warp_, nlanes_);
      bool active = false, live = false;
      for (int l = lo; l < hi; ++l) {
        const auto li = static_cast<std::size_t>(l);
        active = active || m[li] != 0;
        live = live || !returned_[li];
      }
      if (live && !active) fault("__syncthreads not reached by a live warp");
    }
    ++epoch_;
  }

  void shfl_guard() const {
    if (div_depth_ > 0)
      unsupported("__shfl under a symbolically divergent branch");
  }

  void make_broad_mask(const Mask& m, Mask& broad) const {
    broad.assign(lanes(), 0);
    for (int lo = 0; lo < nlanes_; lo += warp_) {
      const int hi = std::min(lo + warp_, nlanes_);
      bool active = false;
      for (int l = lo; l < hi; ++l)
        active = active || m[static_cast<std::size_t>(l)];
      if (active)
        for (int l = lo; l < hi; ++l) broad[static_cast<std::size_t>(l)] = 1;
    }
  }

  /// Selector and width must fold; the source lane rule is the
  /// simulator's (out-of-range sources read the caller's own value).
  void do_shfl(Builtin b, const std::string& callee, View var, View sel,
               View width, const Mask& m, Lane* out, SourceLoc, std::int32_t,
               const std::string*) {
    for (int l = 0; l < nlanes_; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (!m[li]) continue;
      Value sv, wv;
      if (sel.at(li) == kInv || width.at(li) == kInv ||
          !ar_.constant(sel.at(li), &sv) || !ar_.constant(width.at(li), &wv))
        unsupported(callee + " with a symbolic selector or width");
      const std::int64_t wdt = wv.as_i();
      if (!ops::shfl_width_ok(wdt, warp_)) fault(ops::kShflBadWidth);
      const int lane = l % warp_;
      const int src_lane = ops::shfl_source_lane(b, lane, sv.as_i(), wdt);
      int src_tid = l - lane + src_lane;
      if (src_lane < 0 || src_lane >= warp_ || src_tid >= nlanes_)
        src_tid = l;
      const Lane id = var.at(static_cast<std::size_t>(src_tid));
      if (id == kInv)
        unsupported(callee + " reads an uninitialized source value");
      out[li] = id;
    }
  }

  /// One dimension of an array index flatten. A lane's flat index stays
  /// an untagged int (kFlatConst set) while every index so far folded,
  /// with per-dimension bounds checks; from the first symbolic index on
  /// it is a node id. kInv marks a lane with no index (a shfl-broadened
  /// lane), which the access skips.
  void flatten_dim(Lane* flat, View idx, std::int64_t dim, bool first,
                   const Mask& m, SourceLoc loc) {
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      Lane& f = flat[l];
      if (!first && f == kInv) continue;
      const Lane i = idx.at(l);
      if (i == kInv) {
        f = kInv;
        continue;
      }
      const bool folded = first || (f & kFlatConst) != 0;
      const std::int64_t acc = first ? 0 : (f & ~kFlatConst);
      Value iv;
      if (folded && ar_.constant(i, &iv)) {
        const std::int64_t x = iv.as_i();
        if (x < 0 || x >= dim)
          fault(ops::index_out_of_bounds(x, dim, loc));
        f = kFlatConst | static_cast<Lane>(acc * dim + x);
      } else {
        const Lane sum = folded ? ar_.cint(acc) : f;
        f = ar_.bin(BinOp::kAdd, ar_.bin(BinOp::kMul, sum, ar_.cint(dim)), i);
      }
    }
  }

  void buffer_access(std::int32_t slot, const std::string& name, View idx,
                     const Mask& m, const View* store, Lane* out, SourceLoc) {
    GBuf& g = g_.globals[static_cast<std::size_t>(slot)];
    ++seq_;
    const auto elems = static_cast<std::int64_t>(g.cells.size());
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l] || idx.at(l) == kInv) continue;
      Value iv;
      if (ar_.constant(idx.at(l), &iv)) {
        const std::int64_t i = iv.as_i();
        if (i < 0 || i >= elems)
          fault("out-of-bounds access to '" + name + "[" + std::to_string(i) +
                "]' (size " + std::to_string(elems) + ")");
        const auto ci = static_cast<std::size_t>(i);
        if (store)
          note_write(g.meta[ci], g.cells, ci, static_cast<int>(l),
                     coerce_id(store->at(l), g.type), true, name);
        else
          out[l] = note_read(g.meta[ci], g.cells, ci, static_cast<int>(l),
                             true, name);
      } else {
        if (store) unsupported("store to '" + name + "' at a symbolic index");
        out[l] = gather_read(g.meta, g.cells, idx.at(l), static_cast<int>(l),
                             true, name, g.type);
      }
    }
  }

  void shared_access(std::int32_t slot, const std::string& name,
                     const Lane* flat, const Mask& m, const View* store,
                     Lane* out, SourceLoc) {
    array_access(slot, name, flat, m, store, out);
  }
  void local_access(std::int32_t slot, const std::string& name,
                    const Lane* flat, const Mask& m, const View* store,
                    Lane* out, SourceLoc) {
    array_access(slot, name, flat, m, store, out);
  }

  /// Splits `m` on `c`. Lanes whose condition does not fold run both
  /// arms: the frame is snapshotted for the else arm, and the then arm's
  /// branch predicate guards its global stores.
  void if_split(std::size_t pc, View c, const Mask& m, Mask& tm, Mask& em) {
    bool has_sym = false;
    for (std::size_t l = 0; l < lanes(); ++l) {
      tm[l] = em[l] = 0;
      if (!m[l]) continue;
      if (c.at(l) == kInv) unsupported("branch on an uninitialized value");
      Value cv;
      if (ar_.constant(c.at(l), &cv)) {
        (cv.truthy() ? tm : em)[l] = 1;
      } else {
        tm[l] = em[l] = 1;
        has_sym = true;
      }
    }
    if (!has_sym) return;
    SymIf s;
    s.split = pc;
    s.pre = frame_;
    s.cond.assign(lanes(), kInv);
    s.then_only.assign(lanes(), 0);
    s.both.assign(lanes(), 0);
    s.fpred.assign(lanes(), kInv);
    Ids tpred(lanes(), kInv);
    for (std::size_t l = 0; l < lanes(); ++l) {
      s.then_only[l] = tm[l] && !em[l];
      if (!(tm[l] && em[l])) continue;
      s.both[l] = 1;
      s.cond[l] = tpred[l] = c.at(l);
      s.fpred[l] = ar_.un(UnOp::kLNot, c.at(l));
    }
    ++div_depth_;
    preds_.push_back(std::move(tpred));
    ifs_.push_back(std::move(s));
  }

  void if_else(const bytecode::Instr& ins) {
    if (ifs_.empty() || ifs_.back().split != static_cast<std::size_t>(ins.imm))
      return;
    enter_else(ifs_.back());
  }

  void if_end(const bytecode::Instr& ins) {
    if (ifs_.empty() || ifs_.back().split != static_cast<std::size_t>(ins.imm))
      return;
    SymIf& s = ifs_.back();
    if (!s.in_else) enter_else(s);
    preds_.pop_back();
    --div_depth_;
    merge(s);
    ifs_.pop_back();
  }

  /// Loop conditions must fold per lane: trip counts are part of the
  /// proof obligation, not of the symbolic environment.
  void mask_and(Mask& m, View c, bool is_while) {
    const char* what = is_while ? "while condition" : "loop bound";
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l]) continue;
      if (c.at(l) == kInv)
        unsupported(std::string(what) + " reads an uninitialized value");
      Value cv;
      if (!ar_.constant(c.at(l), &cv))
        unsupported(std::string("symbolic ") + what +
                    " (data-dependent trip count)");
      if (!cv.truthy()) m[l] = 0;
    }
  }

  void on_return(const Mask&) const {
    if (div_depth_ > 0)
      unsupported("return under a symbolically divergent branch");
  }

  int nlanes_;
  Mask returned_;
  int shfl_arg_depth_ = 0;

 private:
  /// A flat index lane that is a folded int, not a node id (node ids
  /// stay far below 2^31: max_nodes bounds the arena).
  static constexpr Lane kFlatConst = 0x80000000u;

  /// One symbolically divergent `if` between its kIfSplit and kIfEnd.
  struct SymIf {
    std::size_t split = 0;    // pc of the kIfSplit
    bool in_else = false;
    std::vector<Var> pre;     // the frame the else arm starts from
    std::vector<Var> then_frame;
    Ids cond;                 // symbolic lanes' conditions
    Ids fpred;                // symbolic lanes' negated conditions
    Mask then_only;           // lanes whose condition folded true
    Mask both;                // lanes running both arms
  };

  [[nodiscard]] std::size_t lanes() const {
    return static_cast<std::size_t>(nlanes_);
  }

  /// The live variable bound to `slot`. Geometry codes land here only
  /// where a geometry name is invalid and, like undeclared names, abort.
  Var& lookup(std::int32_t slot, const std::string& name, const char* what) {
    if (slot >= 0) {
      Var& v = frame_[static_cast<std::size_t>(slot)];
      if (v.live) return v;
    } else if (slot == kSlotUnbound) {
      unsupported("internal: unbound reference to '" + name +
                  "' (kernel AST modified after slot binding)");
    }
    unsupported(std::string("use of undeclared variable '") + name + "' in " +
                what);
  }

  std::uint32_t coerce_id(std::uint32_t id, ScalarType to) {
    if (id == kInv) unsupported("store of an uninitialized value");
    return ar_.cast(to, id);
  }

  void fill_element(const ir::DeclStmt& d, std::size_t e, Lane id) {
    Var& v = frame_[static_cast<std::size_t>(d.sim_slot)];
    if (v.block_scoped) {
      v.cells[e] = id;
      return;
    }
    const auto elems = static_cast<std::size_t>(d.type.element_count());
    for (std::size_t l = 0; l < lanes(); ++l) v.cells[l * elems + e] = id;
  }

  [[nodiscard]] int warp_of(int lane) const { return lane / warp_; }

  void note_write(CellMeta& meta, Ids& cells, std::size_t i, int lane,
                  std::uint32_t vid, bool is_global, const std::string& name) {
    if (div_depth_ > 0) {
      // Guarded store: fold the branch predicates into the stored value
      // (select(pred, new, old)). Globals are not snapshot-merged, so
      // the wrapped value is immediately final; shared cells would need
      // a cross-lane merge and stay banned.
      if (!is_global)
        unsupported("store to shared '" + name +
                    "' under a symbolically divergent branch");
      const std::uint32_t old = cells[i];
      if (old == kInv)
        unsupported("guarded store to uninitialized '" + name + "[" +
                    std::to_string(i) + "]'");
      const auto li = static_cast<std::size_t>(lane);
      for (auto it = preds_.rbegin(); it != preds_.rend(); ++it) {
        const std::uint32_t p = (*it)[li];
        if (p != kInv) vid = ar_.select(p, vid, old);
      }
    }
    const int warp = warp_of(lane);
    if (is_global) {
      if (meta.wblock >= 0 && meta.wblock != blk_ && cells[i] != vid)
        unsupported("cross-block write conflict on '" + name + "[" +
                    std::to_string(i) + "]'");
      meta.wblock = blk_;
    }
    if (meta.wseq == seq_ && cells[i] != vid)
      unsupported("conflicting same-statement stores to '" + name + "[" +
                  std::to_string(i) + "]'");
    if (meta.wepoch == epoch_ && meta.wwarp != warp && cells[i] != vid)
      g_.race("cross-warp write/write race on '" + name + "[" +
              std::to_string(i) + "]'");
    if (meta.repoch == epoch_ &&
        (meta.rwarp == -2 || (meta.rwarp >= 0 && meta.rwarp != warp)))
      g_.race("cross-warp read/write race on '" + name + "[" +
              std::to_string(i) + "]'");
    meta.wepoch = epoch_;
    meta.wwarp = warp;
    meta.wseq = seq_;
    cells[i] = vid;
  }

  std::uint32_t note_read(CellMeta& meta, const Ids& cells, std::size_t i,
                          int lane, bool is_global, const std::string& name) {
    const int warp = warp_of(lane);
    if (is_global && meta.wblock >= 0 && meta.wblock != blk_)
      unsupported("cross-block read of '" + name + "[" + std::to_string(i) +
                  "]'");
    if (meta.wepoch == epoch_ && meta.wwarp != warp)
      g_.race("cross-warp write/read race on '" + name + "[" +
              std::to_string(i) + "]'");
    if (meta.repoch == epoch_) {
      if (meta.rwarp != warp && meta.rwarp != -2) meta.rwarp = -2;
    } else {
      meta.repoch = epoch_;
      meta.rwarp = warp;
    }
    const std::uint32_t id = cells[i];
    if (id == kInv && shfl_arg_depth_ == 0)
      unsupported("read of uninitialized '" + name + "[" + std::to_string(i) +
                  "]'");
    return id;
  }

  /// A load at a symbolic index over a whole buffer or shared array.
  std::uint32_t gather_read(std::vector<CellMeta>& meta, const Ids& cells,
                            std::uint32_t idx, int lane, bool is_global,
                            const std::string& name, ScalarType type) {
    const std::size_t n = meta.size();
    if (static_cast<std::int64_t>(n) > g_.opt.max_gather_cells)
      unsupported("load from '" + name + "' at a symbolic index over " +
                  std::to_string(n) + " cells exceeds the gather limit");
    Ids snap(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id =
          note_read(meta[i], cells, i, lane, is_global, name);
      if (id == kInv)
        unsupported("load from '" + name +
                    "' at a symbolic index over uninitialized cells");
      snap[i] = id;
    }
    return ar_.gather(idx, snap, type);
  }

  /// Shared (block-scoped) or per-lane array access on flattened indices.
  void array_access(std::int32_t slot, const std::string& name,
                    const Lane* flat, const Mask& m, const View* store,
                    Lane* out) {
    Var& v = frame_[static_cast<std::size_t>(slot)];
    ++seq_;
    const auto elems = static_cast<std::size_t>(v.type.element_count());
    const ScalarType scalar = v.type.scalar;
    const bool shared = v.block_scoped;
    for (std::size_t l = 0; l < lanes(); ++l) {
      if (!m[l] || flat[l] == kInv) continue;
      const int lane = static_cast<int>(l);
      const std::size_t base = shared ? 0 : l * elems;
      if (flat[l] & kFlatConst) {
        const std::size_t fi = flat[l] & ~kFlatConst;
        const std::size_t ci = base + fi;
        if (store) {
          const std::uint32_t vid = coerce_id(store->at(l), scalar);
          if (shared)
            note_write(v.meta[ci], v.cells, ci, lane, vid, false, name);
          else
            v.cells[ci] = vid;  // per-lane storage: divergence-safe
        } else if (shared) {
          out[l] = note_read(v.meta[ci], v.cells, ci, lane, false, name);
        } else {
          const std::uint32_t id = v.cells[ci];
          if (id == kInv && shfl_arg_depth_ == 0)
            unsupported("read of uninitialized array element '" + name + "[" +
                        std::to_string(fi) + "]'");
          out[l] = id;
        }
        continue;
      }
      if (store) unsupported("store to '" + name + "' at a symbolic index");
      if (shared) {
        out[l] = gather_read(v.meta, v.cells, flat[l], lane, false, name,
                             scalar);
        continue;
      }
      if (static_cast<std::int64_t>(elems) > g_.opt.max_gather_cells)
        unsupported("symbolic-index load over " + std::to_string(elems) +
                    " cells exceeds the gather limit");
      Ids snap(v.cells.begin() + static_cast<std::ptrdiff_t>(base),
               v.cells.begin() + static_cast<std::ptrdiff_t>(base + elems));
      if (std::find(snap.begin(), snap.end(), kInv) != snap.end())
        unsupported("load from '" + name +
                    "' at a symbolic index over uninitialized cells");
      out[l] = ar_.gather(flat[l], snap, scalar);
    }
  }

  /// Then arm done: keep its frame, restart from the snapshot.
  void enter_else(SymIf& s) {
    preds_.back() = std::move(s.fpred);
    s.then_frame = std::move(frame_);
    frame_ = std::move(s.pre);
    s.in_else = true;
  }

  /// Joins the two arms' register state per lane: a folded lane keeps its
  /// own arm, a divergent lane selects on its condition.
  void merge(SymIf& s) {
    auto merge_id = [&](std::size_t lane, std::uint32_t tv,
                        std::uint32_t ev) -> std::uint32_t {
      if (s.then_only[lane]) return tv;
      if (!s.both[lane]) return ev;
      if (tv == ev) return tv;
      if (tv == kInv || ev == kInv) return kInv;
      return ar_.select(s.cond[lane], tv, ev);
    };
    for (std::size_t slot = 0; slot < frame_.size(); ++slot) {
      Var& tv = s.then_frame[slot];
      Var& ev = frame_[slot];
      if (!tv.live) continue;
      if (!ev.live) {
        ev = std::move(tv);  // declared only in the then arm
        continue;
      }
      if (ev.block_scoped || ev.is_buffer) continue;  // stores were banned
      if (tv.scalar.size() == ev.scalar.size())
        for (std::size_t i = 0; i < ev.scalar.size(); ++i)
          ev.scalar[i] = merge_id(i, tv.scalar[i], ev.scalar[i]);
      if (tv.cells.size() == ev.cells.size() && !ev.cells.empty()) {
        const auto elems = static_cast<std::size_t>(ev.type.element_count());
        for (std::size_t i = 0; i < ev.cells.size(); ++i)
          ev.cells[i] = merge_id(i / elems, tv.cells[i], ev.cells[i]);
      }
    }
  }

  SymGrid& g_;
  SymArena& ar_;
  const int warp_;
  const std::int64_t blk_;
  /// Per-block variables, indexed by the binder's slot ids.
  std::vector<Var> frame_;
  /// Geometry lane vectors, indexed by Geom code.
  Ids geom_[kGeomCount];
  std::int64_t epoch_ = 0;  // barrier count within the block
  std::int64_t seq_ = 0;    // one per memory-access instruction
  int div_depth_ = 0;
  /// One per-lane branch-predicate vector per symbolic-divergence level
  /// (kInv = lane is unconditional at that level).
  std::vector<Ids> preds_;
  std::vector<SymIf> ifs_;
};

}  // namespace

SymExecResult sym_execute(const ir::Kernel& kernel, Dim3 grid, Dim3 block,
                          const std::vector<SymArg>& args, SymArena& arena,
                          const SymExecOptions& opt) {
  SymExecResult res;
  const auto bound = bind_kernel(kernel);
  SymGrid g(*bound, grid, block, args, arena, opt);
  try {
    g.setup();
    const auto program = bytecode::lower(*bound);
    for (int bz = 0; bz < grid.z; ++bz)
      for (int by = 0; by < grid.y; ++by)
        for (int bx = 0; bx < grid.x; ++bx) {
          vm::Machine<SymCore> m(*program, g, Dim3{bx, by, bz});
          m.run();
        }
    res.ok = true;
    res.buffers.resize(args.size());
    for (std::size_t i = 0; i < args.size(); ++i)
      res.buffers[i] = std::move(g.globals[i].cells);
  } catch (const Unsupported& u) {
    res.reason = u.reason;
  } catch (const SymFault& f) {
    res.reason = f.message;
    res.fault = true;
  }
  res.races = std::move(g.races);
  res.steps = g.steps;
  return res;
}

}  // namespace cudanp::sim
