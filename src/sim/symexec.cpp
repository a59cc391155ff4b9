// Symbolic executor implementation — model documented in sim/symexec.hpp.
//
// Layout of this file:
//   1. helpers over the shared scalar semantics (sim/ops.hpp), used by
//      constant folding and SymEvaluator
//   2. SymArena: hash-consing, eager folding builders, normalization
//   3. the lockstep-vector executor (anonymous namespace `Exec`), which
//      resolves names through the binder's slots (sim/binder.hpp)
//   4. SymEvaluator
#include "sim/symexec.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>

#include "ir/stmt.hpp"
#include "sim/ops.hpp"
#include "support/rng.hpp"

namespace cudanp::sim {

namespace {

using ir::BinOp;
using ir::ScalarType;
using ir::UnOp;

/// ops:: fault callback: folding raises SymFault where the simulator
/// would raise SimError.
[[noreturn]] void sym_fail(const char* text) { throw SymFault{text}; }

Value call_value(Builtin fn, const std::vector<Value>& xs) {
  return ops::apply_math(*ops::math_op(fn), xs[0],
                         xs.size() > 1 ? xs[1] : Value{});
}

std::uint64_t hash_node(const SymNode& n) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(n.kind));
  mix(static_cast<std::uint64_t>(n.type));
  mix(n.op);
  mix(static_cast<std::uint32_t>(n.param));
  mix(static_cast<std::uint64_t>(n.ival));
  std::uint64_t fb = 0;
  std::memcpy(&fb, &n.fval, sizeof fb);
  mix(fb);
  for (auto k : n.kids) mix(k);
  return h;
}

/// Bit-equality on fval so NaN / -0.0 intern consistently.
bool node_eq(const SymNode& a, const SymNode& b) {
  return a.kind == b.kind && a.type == b.type && a.op == b.op &&
         a.param == b.param && a.ival == b.ival &&
         std::memcmp(&a.fval, &b.fval, sizeof a.fval) == 0 && a.kids == b.kids;
}

std::uint64_t mix_pe(int param, std::int64_t elem) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(param)) + 1) *
             0x9e3779b97f4a7c15ULL ^
         static_cast<std::uint64_t>(elem) * 0xbf58476d1ce4e5b9ULL;
}

}  // namespace

float sym_float_input(std::uint64_t seed, int param, std::int64_t elem) {
  SplitMix64 rng(seed * 0x94d049bb133111ebULL ^ mix_pe(param, elem));
  return rng.next_float(-1.0f, 1.0f);
}

// ---------------------------------------------------------------------------
// SymArena
// ---------------------------------------------------------------------------

std::uint32_t SymArena::intern(SymNode&& n) {
  std::uint64_t h = hash_node(n);
  auto& bucket = index_[h];
  for (auto id : bucket)
    if (node_eq(nodes_[id], n)) return id;
  nodes_.push_back(std::move(n));
  auto id = static_cast<std::uint32_t>(nodes_.size() - 1);
  bucket.push_back(id);
  return id;
}

std::uint32_t SymArena::cint(std::int64_t v) {
  SymNode n;
  n.kind = SymKind::kConstInt;
  n.type = ScalarType::kInt;
  n.ival = v;
  return intern(std::move(n));
}

std::uint32_t SymArena::cfloat(double v) {
  SymNode n;
  n.kind = SymKind::kConstFloat;
  n.type = ScalarType::kFloat;
  n.fval = Value::of_float(v).to_f32().f;
  return intern(std::move(n));
}

std::uint32_t SymArena::input(std::int32_t param, std::int64_t elem,
                              ScalarType type) {
  SymNode n;
  n.kind = SymKind::kInput;
  n.type = type;
  n.param = param;
  n.ival = elem;
  return intern(std::move(n));
}

bool SymArena::constant(std::uint32_t id, Value* out) const {
  const SymNode& n = nodes_[id];
  if (n.kind == SymKind::kConstInt) {
    *out = Value::of_int(n.ival);
    return true;
  }
  if (n.kind == SymKind::kConstFloat) {
    *out = Value::of_float(n.fval);
    return true;
  }
  return false;
}

std::uint32_t SymArena::fold_bin(BinOp op, Value a, Value b) {
  Value r = ops::apply_binop(op, a, b, sym_fail);
  return r.is_float() ? cfloat(r.f) : cint(r.i);
}

std::uint32_t SymArena::bin(BinOp op, std::uint32_t a, std::uint32_t b) {
  Value va, vb;
  if (constant(a, &va) && constant(b, &vb)) return fold_bin(op, va, vb);
  SymNode n;
  n.kind = SymKind::kBin;
  n.op = static_cast<std::uint8_t>(op);
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
      n.type = (nodes_[a].type == ScalarType::kFloat ||
                nodes_[b].type == ScalarType::kFloat)
                   ? ScalarType::kFloat
                   : ScalarType::kInt;
      break;
    default: n.type = ScalarType::kInt; break;
  }
  n.kids = {a, b};
  return intern(std::move(n));
}

std::uint32_t SymArena::un(UnOp op, std::uint32_t a) {
  Value v;
  if (constant(a, &v)) {
    Value r = ops::apply_unop(op, v);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kUnary;
  n.op = static_cast<std::uint8_t>(op);
  n.type = op == UnOp::kNeg ? nodes_[a].type : ScalarType::kInt;
  n.kids = {a};
  return intern(std::move(n));
}

std::uint32_t SymArena::call(Builtin fn, std::vector<std::uint32_t> kids) {
  std::vector<Value> vals(kids.size());
  bool all_const = true;
  bool any_float = false;
  for (std::size_t i = 0; i < kids.size(); ++i) {
    all_const = all_const && constant(kids[i], &vals[i]);
    any_float = any_float || nodes_[kids[i]].type == ScalarType::kFloat;
  }
  if (all_const) {
    Value r = call_value(fn, vals);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kCall;
  n.op = static_cast<std::uint8_t>(fn);
  n.type = ops::math_op(fn)->int_body && !any_float ? ScalarType::kInt
                                                    : ScalarType::kFloat;
  n.kids = std::move(kids);
  return intern(std::move(n));
}

std::uint32_t SymArena::cast(ScalarType to, std::uint32_t a) {
  if (to == ScalarType::kVoid) return a;
  ScalarType target =
      to == ScalarType::kFloat ? ScalarType::kFloat : ScalarType::kInt;
  // Symbolic float expressions are f32-rounded by construction and int
  // expressions are exact int64, so a same-type cast is the identity.
  if (nodes_[a].type == target) return a;
  Value v;
  if (constant(a, &v)) {
    Value r = ops::coerce(v, target);
    return r.is_float() ? cfloat(r.f) : cint(r.i);
  }
  SymNode n;
  n.kind = SymKind::kCast;
  n.op = static_cast<std::uint8_t>(target);
  n.type = target;
  n.kids = {a};
  return intern(std::move(n));
}

std::uint32_t SymArena::select(std::uint32_t c, std::uint32_t a,
                               std::uint32_t b) {
  Value cv;
  if (constant(c, &cv)) return cv.truthy() ? a : b;
  if (a == b) return a;
  SymNode n;
  n.kind = SymKind::kSelect;
  n.type = (nodes_[a].type == ScalarType::kFloat ||
            nodes_[b].type == ScalarType::kFloat)
               ? ScalarType::kFloat
               : ScalarType::kInt;
  n.kids = {c, a, b};
  return intern(std::move(n));
}

std::uint32_t SymArena::gather(std::uint32_t idx,
                               const std::vector<std::uint32_t>& cells,
                               ScalarType type) {
  Value iv;
  if (constant(idx, &iv)) {
    std::int64_t i = iv.as_i();
    if (i < 0 || i >= static_cast<std::int64_t>(cells.size()))
      throw SymFault{"gather index " + std::to_string(i) +
                     " out of range [0," + std::to_string(cells.size()) + ")"};
    return cells[static_cast<std::size_t>(i)];
  }
  bool uniform = true;
  for (auto c : cells)
    if (c != cells[0]) {
      uniform = false;
      break;
    }
  if (uniform && !cells.empty()) return cells[0];
  SymNode n;
  n.kind = SymKind::kGather;
  n.type = type;
  n.kids.reserve(cells.size() + 1);
  n.kids.push_back(idx);
  n.kids.insert(n.kids.end(), cells.begin(), cells.end());
  return intern(std::move(n));
}

std::uint32_t SymArena::nary(SymNaryOp op, ScalarType type,
                             std::vector<std::uint32_t> kids) {
  SymNode n;
  n.kind = SymKind::kNary;
  n.op = static_cast<std::uint8_t>(op);
  n.type = type;
  n.kids = std::move(kids);
  return intern(std::move(n));
}

namespace {

Value combine_nary(SymNaryOp op, Value a, Value b) {
  switch (op) {
    case SymNaryOp::kAdd: return ops::apply_binop<BinOp::kAdd>(a, b, sym_fail);
    case SymNaryOp::kMul: return ops::apply_binop<BinOp::kMul>(a, b, sym_fail);
    case SymNaryOp::kMin: return call_value(Builtin::kMin, {a, b});
    case SymNaryOp::kMax: return call_value(Builtin::kMax, {a, b});
  }
  return a;
}

}  // namespace

std::uint32_t SymArena::make_nary(SymNaryOp op, ScalarType type,
                                  std::vector<std::uint32_t> operands) {
  // Flatten same-op sub-chains (AC), fold constants in encounter order,
  // drop the neutral element (0 for +, 1 for *), dedupe idempotent
  // min/max operands, sort by interned id.
  std::vector<std::uint32_t> flat;
  for (auto o : operands) {
    const SymNode& on = nodes_[o];
    if (on.kind == SymKind::kNary && static_cast<SymNaryOp>(on.op) == op)
      flat.insert(flat.end(), on.kids.begin(), on.kids.end());
    else
      flat.push_back(o);
  }
  bool have_c = false;
  Value acc{};
  std::vector<std::uint32_t> rest;
  bool any_float = type == ScalarType::kFloat;
  for (auto o : flat) {
    Value v;
    if (constant(o, &v)) {
      acc = have_c ? combine_nary(op, acc, v) : v;
      have_c = true;
    } else {
      rest.push_back(o);
      any_float = any_float || nodes_[o].type == ScalarType::kFloat;
    }
  }
  if (have_c) {
    any_float = any_float || acc.is_float();
    bool neutral = false;
    if (op == SymNaryOp::kAdd)
      neutral = acc.is_float() ? acc.f == 0.0 : acc.i == 0;
    else if (op == SymNaryOp::kMul)
      neutral = acc.is_float() ? acc.f == 1.0 : acc.i == 1;
    if (!neutral || rest.empty())
      rest.push_back(acc.is_float() ? cfloat(acc.f) : cint(acc.i));
  }
  // Reduction chains normalize prefix-by-prefix, so the flattened kids
  // usually arrive already sorted; skipping the sort keeps a length-k
  // chain O(k) per prefix instead of O(k log k).
  if (!std::is_sorted(rest.begin(), rest.end()))
    std::sort(rest.begin(), rest.end());
  if (op == SymNaryOp::kMin || op == SymNaryOp::kMax)
    rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  if (rest.size() == 1) return rest[0];
  return nary(op, any_float ? ScalarType::kFloat : ScalarType::kInt,
              std::move(rest));
}

std::uint32_t SymArena::normalize(std::uint32_t id) {
  if (id == kInvalid) return id;
  auto it = norm_memo_.find(id);
  if (it != norm_memo_.end()) return it->second;
  const SymNode n = nodes_[id];  // copy: builders below may grow nodes_
  std::uint32_t r = id;
  switch (n.kind) {
    case SymKind::kConstInt:
    case SymKind::kConstFloat:
    case SymKind::kInput:
    case SymKind::kNary:  // only the normalizer creates these, canonically
      r = id;
      break;
    case SymKind::kBin: {
      std::uint32_t a = normalize(n.kids[0]);
      std::uint32_t b = normalize(n.kids[1]);
      auto op = static_cast<BinOp>(n.op);
      switch (op) {
        case BinOp::kAdd:
          r = make_nary(SymNaryOp::kAdd, n.type, {a, b});
          break;
        case BinOp::kSub:
          r = make_nary(
              SymNaryOp::kAdd, n.type,
              {a, make_nary(SymNaryOp::kMul, nodes_[b].type, {cint(-1), b})});
          break;
        case BinOp::kMul:
          r = make_nary(SymNaryOp::kMul, n.type, {a, b});
          break;
        case BinOp::kGt: r = bin(BinOp::kLt, b, a); break;
        case BinOp::kGe: r = bin(BinOp::kLe, b, a); break;
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLAnd:
        case BinOp::kLOr:
        case BinOp::kBitAnd:
        case BinOp::kBitOr:
        case BinOp::kBitXor:
          if (a > b) std::swap(a, b);
          r = bin(op, a, b);
          break;
        default: r = bin(op, a, b); break;
      }
      break;
    }
    case SymKind::kUnary: {
      std::uint32_t a = normalize(n.kids[0]);
      if (static_cast<UnOp>(n.op) == UnOp::kNeg)
        r = make_nary(SymNaryOp::kMul, nodes_[a].type, {cint(-1), a});
      else
        r = un(UnOp::kLNot, a);
      break;
    }
    case SymKind::kCall: {
      std::vector<std::uint32_t> kids;
      kids.reserve(n.kids.size());
      for (auto k : n.kids) kids.push_back(normalize(k));
      auto fn = static_cast<Builtin>(n.op);
      if (fn == Builtin::kMin || fn == Builtin::kFminf)
        r = make_nary(SymNaryOp::kMin, n.type, std::move(kids));
      else if (fn == Builtin::kMax || fn == Builtin::kFmaxf)
        r = make_nary(SymNaryOp::kMax, n.type, std::move(kids));
      else
        r = call(fn, std::move(kids));
      break;
    }
    case SymKind::kCast:
      r = cast(static_cast<ScalarType>(n.op), normalize(n.kids[0]));
      break;
    case SymKind::kSelect: {
      std::uint32_t c = normalize(n.kids[0]);
      std::uint32_t t = normalize(n.kids[1]);
      std::uint32_t e = normalize(n.kids[2]);
      Value cv;
      if (constant(c, &cv)) {
        r = cv.truthy() ? t : e;
        break;
      }
      if (t == e) {
        r = t;
        break;
      }
      const SymNode& cn = nodes_[c];
      bool made = false;
      if (cn.kind == SymKind::kBin) {
        auto cop = static_cast<BinOp>(cn.op);
        if (cop == BinOp::kLt || cop == BinOp::kLe) {
          std::uint32_t x = cn.kids[0], y = cn.kids[1];
          ScalarType ty = (nodes_[t].type == ScalarType::kFloat ||
                           nodes_[e].type == ScalarType::kFloat)
                              ? ScalarType::kFloat
                              : ScalarType::kInt;
          if (t == x && e == y) {
            r = make_nary(SymNaryOp::kMin, ty, {x, y});
            made = true;
          } else if (t == y && e == x) {
            r = make_nary(SymNaryOp::kMax, ty, {x, y});
            made = true;
          }
        }
      }
      if (!made) r = select(c, t, e);
      break;
    }
    case SymKind::kGather: {
      std::uint32_t idx = normalize(n.kids[0]);
      std::vector<std::uint32_t> cells;
      cells.reserve(n.kids.size() - 1);
      for (std::size_t i = 1; i < n.kids.size(); ++i)
        cells.push_back(normalize(n.kids[i]));
      r = gather(idx, cells, n.type);
      break;
    }
  }
  norm_memo_[id] = r;
  return r;
}

std::string SymArena::str(std::uint32_t id, int max_depth) const {
  if (id == kInvalid) return "<uninit>";
  const SymNode& n = nodes_[id];
  if (max_depth <= 0) return "...";
  std::ostringstream os;
  auto kid = [&](std::size_t i) { return str(n.kids[i], max_depth - 1); };
  switch (n.kind) {
    case SymKind::kConstInt: os << n.ival; break;
    case SymKind::kConstFloat: os << n.fval << "f"; break;
    case SymKind::kInput:
      if (n.ival < 0)
        os << "arg" << n.param;
      else
        os << "in" << n.param << "[" << n.ival << "]";
      break;
    case SymKind::kBin:
      os << "(" << kid(0) << " " << ir::to_string(static_cast<BinOp>(n.op))
         << " " << kid(1) << ")";
      break;
    case SymKind::kUnary:
      os << ir::to_string(static_cast<UnOp>(n.op)) << kid(0);
      break;
    case SymKind::kCall: {
      os << ops::math_op(static_cast<Builtin>(n.op))->name << "(";
      for (std::size_t i = 0; i < n.kids.size(); ++i)
        os << (i ? ", " : "") << kid(i);
      os << ")";
      break;
    }
    case SymKind::kCast:
      os << "(" << ir::to_string(static_cast<ScalarType>(n.op)) << ")"
         << kid(0);
      break;
    case SymKind::kSelect:
      os << "(" << kid(0) << " ? " << kid(1) << " : " << kid(2) << ")";
      break;
    case SymKind::kGather:
      os << "gather[" << (n.kids.size() - 1) << "](" << kid(0) << ")";
      break;
    case SymKind::kNary: {
      static const char* kOps[] = {" + ", " * ", " min ", " max "};
      os << "(";
      for (std::size_t i = 0; i < n.kids.size(); ++i)
        os << (i ? kOps[n.op] : "") << kid(i);
      os << ")";
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kInv = SymArena::kInvalid;

using Mask = std::vector<std::uint8_t>;
using IdVec = std::vector<std::uint32_t>;

bool any(const Mask& m) {
  for (auto b : m)
    if (b) return true;
  return false;
}

/// Non-SymFault abort: unsupported construct (fault = false) or a
/// deterministic interpreter fault (fault = true).
struct Abort {
  std::string reason;
  bool fault = false;
};

struct CellMeta {
  std::int64_t wepoch = -1, repoch = -1;  // within the current block
  int wwarp = -1, rwarp = -1;             // rwarp -2 = several warps
  std::int64_t wseq = -1;                 // same-statement store conflicts
  std::int64_t wblock = -1;               // globals: last writer block
};

struct Var {
  ir::Type type;
  bool live = false;
  bool is_buffer = false;     // pointer param
  int arg = -1;
  bool uniform = false;       // scalar param (read-only)
  bool block_scoped = false;  // shared array: one copy per block
  IdVec scalar;               // per-lane scalar ids
  IdVec cells;                // block_scoped: [elems]; else [lane*elems+e]
  std::vector<CellMeta> meta;  // shared arrays: race tracking per cell
};

struct GBuf {
  ScalarType type = ScalarType::kFloat;
  IdVec cells;
  std::vector<CellMeta> meta;
};

class Exec {
 public:
  Exec(const ir::Kernel& k, Dim3 grid, Dim3 block,
       const std::vector<SymArg>& args, SymArena& arena,
       const SymExecOptions& opt)
      : kernel_(k), grid_(grid), block_(block), args_(args), ar_(arena),
        opt_(opt) {}

  SymExecResult run() {
    SymExecResult res;
    try {
      bound_ = bind_kernel(kernel_);
      setup();
      for (int bz = 0; bz < grid_.z; ++bz)
        for (int by = 0; by < grid_.y; ++by)
          for (int bx = 0; bx < grid_.x; ++bx) {
            begin_block(bx, by, bz);
            Mask all(static_cast<std::size_t>(nlanes_), 1);
            exec_block(*kernel_.body, all);
          }
      res.ok = true;
      res.buffers.resize(args_.size());
      for (std::size_t i = 0; i < args_.size(); ++i)
        if (!globals_[i].cells.empty()) res.buffers[i] = globals_[i].cells;
    } catch (const Abort& a) {
      res.reason = a.reason;
      res.fault = a.fault;
    } catch (const SymFault& f) {
      res.reason = f.message;
      res.fault = true;
    }
    res.races = std::move(races_);
    res.steps = steps_;
    return res;
  }

 private:
  // ---------------- setup ----------------
  void setup() {
    if (grid_.x <= 0 || grid_.y <= 0 || grid_.z <= 0 || block_.x <= 0 ||
        block_.y <= 0 || block_.z <= 0)
      throw Abort{"invalid launch dimensions", true};
    if (block_.count() > 1024) throw Abort{"block too large", true};
    nlanes_ = static_cast<int>(block_.count());
    if (args_.size() != kernel_.params.size())
      throw Abort{"kernel '" + kernel_.name + "' expects " +
                      std::to_string(kernel_.params.size()) + " args, got " +
                      std::to_string(args_.size()),
                  true};
    globals_.resize(args_.size());
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const ir::Param& p = kernel_.params[i];
      const SymArg& a = args_[i];
      if (!p.type.is_pointer) continue;
      GBuf& g = globals_[i];
      g.type = p.type.scalar;
      g.cells.resize(static_cast<std::size_t>(a.elems), kInv);
      g.meta.assign(static_cast<std::size_t>(a.elems), CellMeta{});
      auto pi = static_cast<std::int32_t>(i);
      switch (a.kind) {
        case SymArg::Kind::kBufferSymbolic:
          if (g.type != ScalarType::kFloat)
            throw Abort{"arg " + std::to_string(i) + " ('" + p.name +
                            "'): symbolic buffers must be float",
                        false};
          for (std::int64_t e = 0; e < a.elems; ++e)
            g.cells[static_cast<std::size_t>(e)] =
                ar_.input(pi, e, ScalarType::kFloat);
          break;
        case SymArg::Kind::kBufferConcrete:
          if (static_cast<std::int64_t>(a.ints.size()) != a.elems)
            throw Abort{"arg " + std::to_string(i) + " ('" + p.name +
                            "'): concrete buffer contents missing",
                        false};
          for (std::int64_t e = 0; e < a.elems; ++e) {
            auto ci = a.ints[static_cast<std::size_t>(e)];
            g.cells[static_cast<std::size_t>(e)] =
                g.type == ScalarType::kFloat
                    ? ar_.cfloat(static_cast<double>(ci))
                    : ar_.cint(ci);
          }
          break;
        case SymArg::Kind::kBufferScratch: break;  // uninitialized
        default:
          throw Abort{"arg " + std::to_string(i) + " ('" + p.name +
                          "') must be a buffer",
                      true};
      }
    }
  }

  void begin_block(int bx, int by, int bz) {
    blk_ = static_cast<std::int64_t>(bz) * grid_.x * grid_.y +
           static_cast<std::int64_t>(by) * grid_.x + bx;
    frame_.assign(bound_->num_slots(), Var{});
    preds_.clear();
    returned_.assign(static_cast<std::size_t>(nlanes_), 0);
    epoch_ = 0;
    seq_ = 0;
    for (auto& g : globals_)
      for (auto& m : g.meta) {
        m.wepoch = m.repoch = -1;
        m.wwarp = m.rwarp = -1;
        m.wseq = -1;
      }
    // Geometry lane vectors (same lane order as exec::BlockCore).
    auto splat_i = [&](std::int64_t v) {
      return IdVec(static_cast<std::size_t>(nlanes_), ar_.cint(v));
    };
    IdVec tx(static_cast<std::size_t>(nlanes_)),
        ty(static_cast<std::size_t>(nlanes_)),
        tz(static_cast<std::size_t>(nlanes_));
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      tx[li] = ar_.cint(l % block_.x);
      ty[li] = ar_.cint((l / block_.x) % block_.y);
      tz[li] = ar_.cint(l / (block_.x * block_.y));
    }
    geom_[kGeomThreadIdxX] = std::move(tx);
    geom_[kGeomThreadIdxY] = std::move(ty);
    geom_[kGeomThreadIdxZ] = std::move(tz);
    geom_[kGeomBlockIdxX] = splat_i(bx);
    geom_[kGeomBlockIdxY] = splat_i(by);
    geom_[kGeomBlockIdxZ] = splat_i(bz);
    geom_[kGeomBlockDimX] = splat_i(block_.x);
    geom_[kGeomBlockDimY] = splat_i(block_.y);
    geom_[kGeomBlockDimZ] = splat_i(block_.z);
    geom_[kGeomGridDimX] = splat_i(grid_.x);
    geom_[kGeomGridDimY] = splat_i(grid_.y);
    geom_[kGeomGridDimZ] = splat_i(grid_.z);
    // Parameters.
    for (std::size_t i = 0; i < kernel_.params.size(); ++i) {
      const ir::Param& p = kernel_.params[i];
      const SymArg& a = args_[i];
      Var v;
      v.type = p.type;
      v.live = true;
      if (p.type.is_pointer) {
        v.is_buffer = true;
        v.arg = static_cast<int>(i);
      } else {
        v.uniform = true;
        std::uint32_t id;
        if (a.kind == SymArg::Kind::kScalarSymbolic) {
          id = ar_.input(static_cast<std::int32_t>(i), -1, ScalarType::kFloat);
        } else if (p.type.scalar == ScalarType::kFloat) {
          id = ar_.cfloat(a.scalar.as_f());
        } else {
          id = ar_.cint(a.scalar.as_i());
        }
        v.scalar.assign(static_cast<std::size_t>(nlanes_), id);
      }
      frame_[i] = std::move(v);  // the binder gives params slots 0..n-1
    }
  }

  // ---------------- bookkeeping ----------------
  void count_step() {
    if (++steps_ > opt_.max_steps)
      throw Abort{"step budget of " + std::to_string(opt_.max_steps) +
                  " exhausted"};
    if (static_cast<std::int64_t>(ar_.size()) > opt_.max_nodes)
      throw Abort{"expression budget of " + std::to_string(opt_.max_nodes) +
                  " nodes exhausted"};
  }

  int warp_of(int lane) const { return lane / opt_.warp_size; }

  void race(const std::string& msg) {
    if (races_.size() < 64) races_.push_back(SymRace{msg});
  }

  /// The live variable bound to `slot` (a VarRef's sim_slot). Geometry
  /// codes land here only where a geometry name is invalid (array base,
  /// assignment target) and, like undeclared names, abort.
  Var& lookup(std::int32_t slot, const std::string& name, const char* what) {
    if (slot >= 0) {
      Var& v = frame_[static_cast<std::size_t>(slot)];
      if (v.live) return v;
    } else if (slot == kSlotUnbound) {
      throw Abort{"internal: unbound reference to '" + name +
                  "' (kernel AST modified after slot binding)"};
    }
    throw Abort{std::string("use of undeclared variable '") + name + "' in " +
                what};
  }

  IdVec splat(std::uint32_t id) const {
    return IdVec(static_cast<std::size_t>(nlanes_), id);
  }

  // ---------------- expression evaluation ----------------
  IdVec eval(const ir::Expr& e, const Mask& m) {
    switch (e.kind()) {
      case ir::ExprKind::kIntLit:
        return splat(ar_.cint(static_cast<const ir::IntLit&>(e).value));
      case ir::ExprKind::kFloatLit:
        return splat(ar_.cfloat(static_cast<const ir::FloatLit&>(e).value));
      case ir::ExprKind::kVarRef:
        return eval_varref(static_cast<const ir::VarRef&>(e), m);
      case ir::ExprKind::kArrayIndex:
        return access(static_cast<const ir::ArrayIndex&>(e), m, nullptr);
      case ir::ExprKind::kBinary: {
        const auto& b = static_cast<const ir::BinaryExpr&>(e);
        // Both sides evaluate under the full mask (no short-circuit),
        // matching the vector interpreter.
        IdVec l = eval(*b.lhs, m);
        IdVec r = eval(*b.rhs, m);
        for (int i = 0; i < nlanes_; ++i) {
          auto li = static_cast<std::size_t>(i);
          if (!m[li]) continue;
          l[li] = (l[li] == kInv || r[li] == kInv) ? kInv
                                                   : ar_.bin(b.op, l[li], r[li]);
        }
        return l;
      }
      case ir::ExprKind::kUnary: {
        const auto& u = static_cast<const ir::UnaryExpr&>(e);
        IdVec v = eval(*u.operand, m);
        for (int i = 0; i < nlanes_; ++i) {
          auto li = static_cast<std::size_t>(i);
          if (m[li] && v[li] != kInv) v[li] = ar_.un(u.op, v[li]);
        }
        return v;
      }
      case ir::ExprKind::kCall:
        return eval_call(static_cast<const ir::CallExpr&>(e), m);
      case ir::ExprKind::kTernary: {
        const auto& t = static_cast<const ir::TernaryExpr&>(e);
        IdVec c = eval(*t.cond, m);
        IdVec a = eval(*t.then_value, m);
        IdVec b = eval(*t.else_value, m);
        for (int i = 0; i < nlanes_; ++i) {
          auto li = static_cast<std::size_t>(i);
          if (!m[li]) continue;
          a[li] = (c[li] == kInv || a[li] == kInv || b[li] == kInv)
                      ? kInv
                      : ar_.select(c[li], a[li], b[li]);
        }
        return a;
      }
      case ir::ExprKind::kCast: {
        const auto& c = static_cast<const ir::CastExpr&>(e);
        IdVec v = eval(*c.operand, m);
        for (int i = 0; i < nlanes_; ++i) {
          auto li = static_cast<std::size_t>(i);
          if (m[li] && v[li] != kInv) v[li] = ar_.cast(c.to, v[li]);
        }
        return v;
      }
    }
    throw Abort{"unreachable expression kind"};
  }

  IdVec eval_varref(const ir::VarRef& v, const Mask& m) {
    if (slot_is_geometry(v.sim_slot))
      return geom_[slot_geometry_code(v.sim_slot)];
    Var& var = lookup(v.sim_slot, v.name, "expression");
    if (var.is_buffer || var.type.is_array())
      throw Abort{"array '" + v.name + "' used as a value"};
    IdVec out = var.scalar;
    if (shfl_depth_ == 0)
      for (int l = 0; l < nlanes_; ++l)
        if (m[static_cast<std::size_t>(l)] &&
            out[static_cast<std::size_t>(l)] == kInv)
          throw Abort{"read of uninitialized variable '" + v.name + "'"};
    return out;
  }

  IdVec eval_call(const ir::CallExpr& c, const Mask& m) {
    const std::string& f = c.callee;
    const Builtin b = builtin_of(c);
    switch (b) {
      case Builtin::kSyncthreads:
        barrier(m);
        return splat(ar_.cint(0));
      case Builtin::kShfl:
      case Builtin::kShflUp:
      case Builtin::kShflDown:
      case Builtin::kShflXor:
        return eval_shfl(c, b, m);
      case Builtin::kNotBuiltin:
        throw Abort{"call to unknown function '" + f + "'"};
      default:
        break;
    }
    const int arity = ops::math_op(b)->arity;
    if (static_cast<int>(c.args.size()) != arity)
      throw Abort{f + " expects " + std::to_string(arity) + " argument(s)",
                  true};
    std::vector<IdVec> xs;
    xs.reserve(c.args.size());
    for (const auto& a : c.args) xs.push_back(eval(*a, m));
    IdVec out(static_cast<std::size_t>(nlanes_), kInv);
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!m[li]) continue;
      std::vector<std::uint32_t> kids;
      kids.reserve(xs.size());
      bool bad = false;
      for (const auto& x : xs) {
        bad = bad || x[li] == kInv;
        kids.push_back(x[li]);
      }
      out[li] = bad ? kInv : ar_.call(b, std::move(kids));
    }
    return out;
  }

  Mask broaden(const Mask& m) const {
    Mask broad(static_cast<std::size_t>(nlanes_), 0);
    for (int w = 0; w * opt_.warp_size < nlanes_; ++w) {
      int lo = w * opt_.warp_size;
      int hi = std::min(lo + opt_.warp_size, nlanes_);
      bool active = false;
      for (int l = lo; l < hi; ++l) active = active || m[static_cast<std::size_t>(l)];
      if (active)
        for (int l = lo; l < hi; ++l) broad[static_cast<std::size_t>(l)] = 1;
    }
    return broad;
  }

  IdVec eval_shfl(const ir::CallExpr& c, Builtin b, const Mask& m) {
    if (div_depth_ > 0)
      throw Abort{"__shfl under a symbolically divergent branch"};
    if (c.args.size() != 3)
      throw Abort{c.callee + " expects (var, lane, width)", true};
    Mask broad = broaden(m);
    ++shfl_depth_;
    IdVec var = eval(*c.args[0], broad);
    --shfl_depth_;
    IdVec sel = eval(*c.args[1], m);
    IdVec wid = eval(*c.args[2], m);
    IdVec out(static_cast<std::size_t>(nlanes_), kInv);
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!m[li]) continue;
      Value sv, wv;
      if (sel[li] == kInv || wid[li] == kInv ||
          !ar_.constant(sel[li], &sv) || !ar_.constant(wid[li], &wv))
        throw Abort{c.callee + " with a symbolic selector or width"};
      std::int64_t wdt = wv.as_i();
      if (!ops::shfl_width_ok(wdt, opt_.warp_size))
        throw Abort{ops::kShflBadWidth, true};
      int lane = l % opt_.warp_size;
      int src_lane = ops::shfl_source_lane(b, lane, sv.as_i(), wdt);
      int src_tid = l - lane + src_lane;
      if (src_lane < 0 || src_lane >= opt_.warp_size || src_tid >= nlanes_)
        src_tid = l;  // hardware-style out-of-range recovery
      std::uint32_t id = var[static_cast<std::size_t>(src_tid)];
      if (id == kInv)
        throw Abort{c.callee + " reads an uninitialized source value"};
      out[li] = id;
    }
    return out;
  }

  // ---------------- memory ----------------
  void note_write(CellMeta& meta, IdVec& cells, std::size_t i, int lane,
                  std::uint32_t vid, bool is_global, const std::string& name) {
    if (div_depth_ > 0) {
      // Guarded store: fold the branch predicates into the stored value
      // (select(pred, new, old)). Globals are not snapshot-merged, so
      // the wrapped value is immediately final; shared cells would need
      // a cross-lane merge and stay banned.
      if (!is_global)
        throw Abort{"store to shared '" + name +
                    "' under a symbolically divergent branch"};
      std::uint32_t old = cells[i];
      if (old == kInv)
        throw Abort{"guarded store to uninitialized '" + name + "[" +
                    std::to_string(i) + "]'"};
      auto li = static_cast<std::size_t>(lane);
      for (auto it = preds_.rbegin(); it != preds_.rend(); ++it) {
        std::uint32_t p = (*it)[li];
        if (p != kInv) vid = ar_.select(p, vid, old);
      }
    }
    int warp = warp_of(lane);
    if (is_global) {
      if (meta.wblock >= 0 && meta.wblock != blk_ && cells[i] != vid)
        throw Abort{"cross-block write conflict on '" + name + "[" +
                    std::to_string(i) + "]'"};
      meta.wblock = blk_;
    }
    if (meta.wseq == seq_ && cells[i] != vid)
      throw Abort{"conflicting same-statement stores to '" + name + "[" +
                  std::to_string(i) + "]'"};
    if (meta.wepoch == epoch_ && meta.wwarp != warp && cells[i] != vid)
      race("cross-warp write/write race on '" + name + "[" +
           std::to_string(i) + "]'");
    if (meta.repoch == epoch_ &&
        (meta.rwarp == -2 || (meta.rwarp >= 0 && meta.rwarp != warp)))
      race("cross-warp read/write race on '" + name + "[" + std::to_string(i) +
           "]'");
    meta.wepoch = epoch_;
    meta.wwarp = warp;
    meta.wseq = seq_;
    cells[i] = vid;
  }

  std::uint32_t note_read(CellMeta& meta, const IdVec& cells, std::size_t i,
                          int lane, bool is_global, const std::string& name) {
    int warp = warp_of(lane);
    if (is_global && meta.wblock >= 0 && meta.wblock != blk_)
      throw Abort{"cross-block read of '" + name + "[" + std::to_string(i) +
                  "]'"};
    if (meta.wepoch == epoch_ && meta.wwarp != warp)
      race("cross-warp write/read race on '" + name + "[" + std::to_string(i) +
           "]'");
    if (meta.repoch == epoch_) {
      if (meta.rwarp != warp && meta.rwarp != -2) meta.rwarp = -2;
    } else {
      meta.repoch = epoch_;
      meta.rwarp = warp;
    }
    std::uint32_t id = cells[i];
    if (id == kInv && shfl_depth_ == 0)
      throw Abort{"read of uninitialized '" + name + "[" + std::to_string(i) +
                  "]'"};
    return id;
  }

  std::uint32_t gather_read(std::vector<CellMeta>& meta, const IdVec& cells,
                            std::size_t lo, std::size_t n, std::uint32_t idx,
                            int lane, bool is_global, const std::string& name,
                            ScalarType type) {
    if (static_cast<std::int64_t>(n) > opt_.max_gather_cells)
      throw Abort{"load from '" + name + "' at a symbolic index over " +
                  std::to_string(n) + " cells exceeds the gather limit"};
    std::vector<std::uint32_t> snap(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t id = note_read(meta[lo + i], cells, lo + i, lane,
                                   is_global, name);
      if (id == kInv)
        throw Abort{"load from '" + name +
                    "' at a symbolic index over uninitialized cells"};
      snap[i] = id;
    }
    return ar_.gather(idx, snap, type);
  }

  /// Load (store == nullptr) or store through an ArrayIndex expression.
  IdVec access(const ir::ArrayIndex& ai, const Mask& m, const IdVec* store) {
    if (ai.base->kind() != ir::ExprKind::kVarRef)
      throw Abort{"array base must be a variable", true};
    const auto& ref = static_cast<const ir::VarRef&>(*ai.base);
    const std::string& name = ref.name;
    Var& v = lookup(ref.sim_slot, name, "array access");
    ++seq_;
    IdVec out(static_cast<std::size_t>(nlanes_), kInv);

    if (v.is_buffer) {
      if (ai.indices.size() != 1)
        throw Abort{"pointer '" + name + "' requires exactly one index", true};
      IdVec idx = eval(*ai.indices[0], m);
      GBuf& g = globals_[static_cast<std::size_t>(v.arg)];
      auto elems = static_cast<std::int64_t>(g.cells.size());
      for (int l = 0; l < nlanes_; ++l) {
        auto li = static_cast<std::size_t>(l);
        if (!m[li]) continue;
        if (idx[li] == kInv) continue;  // shfl-broadened lane, unused
        Value iv;
        if (ar_.constant(idx[li], &iv)) {
          std::int64_t i = iv.as_i();
          if (i < 0 || i >= elems)
            throw Abort{"out-of-bounds access to '" + name + "[" +
                            std::to_string(i) + "]' (size " +
                            std::to_string(elems) + ")",
                        true};
          auto ci = static_cast<std::size_t>(i);
          if (store) {
            std::uint32_t vid = coerce_id((*store)[li], g.type);
            note_write(g.meta[ci], g.cells, ci, l, vid, true, name);
          } else {
            out[li] = note_read(g.meta[ci], g.cells, ci, l, true, name);
          }
        } else {
          if (store)
            throw Abort{"store to '" + name + "' at a symbolic index"};
          out[li] = gather_read(g.meta, g.cells, 0, g.cells.size(), idx[li],
                                l, true, name, g.type);
        }
      }
      return out;
    }

    if (!v.type.is_array()) throw Abort{"'" + name + "' is not an array", true};
    const auto& dims = v.type.array_dims;
    if (ai.indices.size() != dims.size())
      throw Abort{"array '" + name + "' has " + std::to_string(dims.size()) +
                      " dims, indexed with " +
                      std::to_string(ai.indices.size()),
                  true};
    // Flatten, keeping per-dim bounds checks when indices are concrete.
    std::vector<IdVec> idxs;
    idxs.reserve(dims.size());
    for (const auto& ie : ai.indices) idxs.push_back(eval(*ie, m));
    std::int64_t elems = v.type.element_count();
    auto scalar = v.type.scalar;
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!m[li]) continue;
      std::int64_t flat = 0;
      std::uint32_t sym_flat = kInv;
      bool symbolic = false, dead = false;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        std::uint32_t id = idxs[d][li];
        if (id == kInv) {
          dead = true;  // shfl-broadened lane with no value; skip quietly
          break;
        }
        Value iv;
        if (!symbolic && ar_.constant(id, &iv)) {
          std::int64_t i = iv.as_i();
          if (i < 0 || i >= dims[d])
            throw Abort{"index " + std::to_string(i) + " out of bounds for '" +
                            name + "' dim of " + std::to_string(dims[d]),
                        true};
          flat = flat * dims[d] + i;
        } else {
          // Switch to symbolic flattening from here on.
          if (!symbolic) {
            sym_flat = ar_.cint(flat);
            symbolic = true;
          }
          sym_flat = ar_.bin(BinOp::kAdd,
                             ar_.bin(BinOp::kMul, sym_flat, ar_.cint(dims[d])),
                             id);
        }
      }
      if (dead) continue;
      bool shared = v.block_scoped;
      std::size_t base = shared ? 0
                                : static_cast<std::size_t>(l) *
                                      static_cast<std::size_t>(elems);
      if (!symbolic) {
        auto ci = base + static_cast<std::size_t>(flat);
        if (store) {
          std::uint32_t vid = coerce_id((*store)[li], scalar);
          if (shared) {
            note_write(v.meta[ci], v.cells, ci, l, vid, false, name);
          } else {
            v.cells[ci] = vid;  // per-lane storage: divergence-safe
          }
        } else if (shared) {
          out[li] = note_read(v.meta[ci], v.cells, ci, l, false, name);
        } else {
          std::uint32_t id = v.cells[ci];
          if (id == kInv && shfl_depth_ == 0)
            throw Abort{"read of uninitialized array element '" + name + "[" +
                        std::to_string(flat) + "]'"};
          out[li] = id;
        }
      } else {
        if (store)
          throw Abort{"store to '" + name + "' at a symbolic index"};
        if (shared) {
          out[li] = gather_read(v.meta, v.cells, 0,
                                static_cast<std::size_t>(elems), sym_flat, l,
                                false, name, scalar);
        } else {
          if (elems > opt_.max_gather_cells)
            throw Abort{"symbolic-index load over " + std::to_string(elems) +
                        " cells exceeds the gather limit"};
          std::vector<std::uint32_t> snap(static_cast<std::size_t>(elems));
          for (std::int64_t e = 0; e < elems; ++e) {
            std::uint32_t id = v.cells[base + static_cast<std::size_t>(e)];
            if (id == kInv)
              throw Abort{"load from '" + name +
                          "' at a symbolic index over uninitialized cells"};
            snap[static_cast<std::size_t>(e)] = id;
          }
          out[li] = ar_.gather(sym_flat, snap, scalar);
        }
      }
    }
    return out;
  }

  std::uint32_t coerce_id(std::uint32_t id, ScalarType to) {
    if (id == kInv) throw Abort{"store of an uninitialized value"};
    return ar_.cast(to, id);
  }

  void barrier(const Mask& m) {
    if (div_depth_ > 0)
      throw Abort{"__syncthreads under a symbolically divergent branch"};
    // Warp-granular arrival, matching the interpreter's note_barrier: a
    // warp arrives when any lane reaches the barrier; a warp with live
    // lanes that never arrives deadlocks on real hardware (and is a
    // deterministic kBarrierDivergence hazard in the sanitizer).
    for (int lo = 0; lo < nlanes_; lo += opt_.warp_size) {
      int hi = std::min(lo + opt_.warp_size, nlanes_);
      bool active = false, live = false;
      for (int l = lo; l < hi; ++l) {
        auto li = static_cast<std::size_t>(l);
        active = active || m[li] != 0;
        live = live || !returned_[li];
      }
      if (live && !active)
        throw Abort{"__syncthreads not reached by a live warp", true};
    }
    ++epoch_;
  }

  // ---------------- statements ----------------
  void exec_block(const ir::Block& b, Mask m) {
    for (const auto& s : b.stmts) {
      bool alive = false;
      for (int l = 0; l < nlanes_; ++l) {
        auto li = static_cast<std::size_t>(l);
        if (returned_[li]) m[li] = 0;
        alive = alive || m[li];
      }
      if (!alive) return;
      exec_stmt(*s, m);
    }
  }

  void exec_stmt(const ir::Stmt& s, const Mask& m) {
    count_step();
    switch (s.kind()) {
      case ir::StmtKind::kBlock:
        exec_block(static_cast<const ir::Block&>(s), m);
        return;
      case ir::StmtKind::kDecl:
        exec_decl(static_cast<const ir::DeclStmt&>(s), m);
        return;
      case ir::StmtKind::kAssign:
        exec_assign(static_cast<const ir::AssignStmt&>(s), m);
        return;
      case ir::StmtKind::kIf:
        exec_if(static_cast<const ir::IfStmt&>(s), m);
        return;
      case ir::StmtKind::kFor:
        exec_for(static_cast<const ir::ForStmt&>(s), m);
        return;
      case ir::StmtKind::kWhile:
        exec_while(static_cast<const ir::WhileStmt&>(s), m);
        return;
      case ir::StmtKind::kExpr:
        (void)eval(*static_cast<const ir::ExprStmt&>(s).expr, m);
        return;
      case ir::StmtKind::kReturn:
        if (div_depth_ > 0)
          throw Abort{"return under a symbolically divergent branch"};
        for (int l = 0; l < nlanes_; ++l)
          if (m[static_cast<std::size_t>(l)])
            returned_[static_cast<std::size_t>(l)] = 1;
        return;
      case ir::StmtKind::kBreak:
      case ir::StmtKind::kContinue:
        // The interpreter rejects these too (structured masks only).
        throw Abort{"break/continue are not supported", true};
    }
  }

  void exec_decl(const ir::DeclStmt& d, const Mask& m) {
    if (d.sim_slot < 0)
      throw Abort{"internal: unbound declaration of '" + d.name +
                  "' (kernel AST modified after slot binding)"};
    if (d.type.space == ir::AddrSpace::kShared && !d.type.is_array())
      throw Abort{ops::shared_scalar_error(d.name), true};
    Var v;
    v.type = d.type;
    v.live = true;
    if (d.type.is_array()) {
      std::int64_t elems = d.type.element_count();
      v.block_scoped = d.type.space == ir::AddrSpace::kShared;
      std::size_t ncells = v.block_scoped
                               ? static_cast<std::size_t>(elems)
                               : static_cast<std::size_t>(elems) *
                                     static_cast<std::size_t>(nlanes_);
      v.cells.assign(ncells, kInv);
      if (v.block_scoped) v.meta.assign(static_cast<std::size_t>(elems), CellMeta{});
      if (!d.init_list.empty()) {
        if (static_cast<std::int64_t>(d.init_list.size()) > elems)
          throw Abort{"too many initializers for '" + d.name + "'", true};
        // Brace initializers are constant contents; lane-0 semantics, and
        // the tail zero-fills like C.
        Mask one(static_cast<std::size_t>(nlanes_), 0);
        one[0] = 1;
        for (std::int64_t e = 0; e < elems; ++e) {
          std::uint32_t id;
          if (e < static_cast<std::int64_t>(d.init_list.size())) {
            IdVec x = eval(*d.init_list[static_cast<std::size_t>(e)], one);
            id = coerce_id(x[0], d.type.scalar);
          } else {
            id = d.type.scalar == ScalarType::kFloat ? ar_.cfloat(0.0)
                                                     : ar_.cint(0);
          }
          if (v.block_scoped) {
            v.cells[static_cast<std::size_t>(e)] = id;
          } else {
            for (int l = 0; l < nlanes_; ++l)
              v.cells[static_cast<std::size_t>(l) *
                          static_cast<std::size_t>(elems) +
                      static_cast<std::size_t>(e)] = id;
          }
        }
      } else if (d.init) {
        throw Abort{"array initializers are not supported", true};
      }
    } else {
      v.scalar.assign(static_cast<std::size_t>(nlanes_), kInv);
      if (d.init) {
        IdVec x = eval(*d.init, m);
        for (int l = 0; l < nlanes_; ++l) {
          auto li = static_cast<std::size_t>(l);
          if (m[li]) v.scalar[li] = coerce_id(x[li], d.type.scalar);
        }
      }
    }
    frame_[static_cast<std::size_t>(d.sim_slot)] = std::move(v);
  }

  void store_var(const ir::VarRef& ref, const Mask& m, const IdVec& val) {
    const std::string& name = ref.name;
    Var& v = lookup(ref.sim_slot, name, "assignment");
    if (v.is_buffer || v.type.is_array() || v.uniform)
      throw Abort{"cannot assign to '" + name + "'", true};
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (m[li]) v.scalar[li] = coerce_id(val[li], v.type.scalar);
    }
  }

  void exec_assign(const ir::AssignStmt& a, const Mask& m) {
    IdVec rhs = eval(*a.rhs, m);
    if (a.op != ir::AssignOp::kAssign) {
      IdVec old = eval(*a.lhs, m);
      BinOp op = a.op == ir::AssignOp::kAdd   ? BinOp::kAdd
                 : a.op == ir::AssignOp::kSub ? BinOp::kSub
                 : a.op == ir::AssignOp::kMul ? BinOp::kMul
                                              : BinOp::kDiv;
      for (int l = 0; l < nlanes_; ++l) {
        auto li = static_cast<std::size_t>(l);
        if (!m[li]) continue;
        if (old[li] == kInv || rhs[li] == kInv)
          throw Abort{"compound assignment reads an uninitialized value"};
        rhs[li] = ar_.bin(op, old[li], rhs[li]);
      }
    }
    if (a.lhs->kind() == ir::ExprKind::kVarRef) {
      store_var(static_cast<const ir::VarRef&>(*a.lhs), m, rhs);
      return;
    }
    if (a.lhs->kind() == ir::ExprKind::kArrayIndex) {
      (void)access(static_cast<const ir::ArrayIndex&>(*a.lhs), m, &rhs);
      return;
    }
    throw Abort{"invalid assignment target", true};
  }

  void exec_if(const ir::IfStmt& s, const Mask& m) {
    IdVec c = eval(*s.cond, m);
    Mask tm(static_cast<std::size_t>(nlanes_), 0);
    Mask fm(static_cast<std::size_t>(nlanes_), 0);
    Mask sm(static_cast<std::size_t>(nlanes_), 0);
    bool has_sym = false;
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!m[li]) continue;
      if (c[li] == kInv) throw Abort{"branch on an uninitialized value"};
      Value cv;
      if (ar_.constant(c[li], &cv)) {
        (cv.truthy() ? tm : fm)[li] = 1;
      } else {
        sm[li] = 1;
        has_sym = true;
      }
    }
    if (!has_sym) {
      if (any(tm)) exec_block(*s.then_body, tm);
      if (s.else_body && any(fm)) exec_block(*s.else_body, fm);
      return;
    }
    // Symbolically divergent branch: run both sides from the same
    // pre-state, then merge per-lane register values with select nodes.
    // Side effects that could leak across lanes (shared/global stores,
    // barriers, shfl, return) abort inside either side.
    auto pre = frame_;
    Mask tsm = tm, fsm = fm;
    IdVec tpred(static_cast<std::size_t>(nlanes_), kInv);
    IdVec fpred(static_cast<std::size_t>(nlanes_), kInv);
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!sm[li]) continue;
      tsm[li] = fsm[li] = 1;
      tpred[li] = c[li];
      fpred[li] = ar_.un(UnOp::kLNot, c[li]);
    }
    ++div_depth_;
    preds_.push_back(std::move(tpred));
    exec_block(*s.then_body, tsm);
    preds_.back() = std::move(fpred);
    auto then_frame = std::move(frame_);
    frame_ = std::move(pre);
    if (s.else_body) exec_block(*s.else_body, fsm);
    preds_.pop_back();
    --div_depth_;
    merge_vars(then_frame, c, tm, sm);
  }

  void merge_vars(std::vector<Var>& then_frame, const IdVec& cond,
                  const Mask& tm, const Mask& sm) {
    auto merge_id = [&](std::size_t lane, std::uint32_t tv,
                        std::uint32_t ev) -> std::uint32_t {
      if (tm[lane]) return tv;
      if (!sm[lane]) return ev;
      if (tv == ev) return tv;
      if (tv == kInv || ev == kInv) return kInv;
      return ar_.select(cond[lane], tv, ev);
    };
    for (std::size_t slot = 0; slot < frame_.size(); ++slot) {
      Var& tv = then_frame[slot];
      Var& ev = frame_[slot];
      if (!tv.live) continue;
      if (!ev.live) {
        ev = std::move(tv);  // declared only in the then-branch
        continue;
      }
      if (ev.block_scoped || ev.is_buffer) continue;  // stores were banned
      if (tv.scalar.size() == ev.scalar.size())
        for (std::size_t i = 0; i < ev.scalar.size(); ++i)
          ev.scalar[i] = merge_id(i, tv.scalar[i], ev.scalar[i]);
      if (!ev.block_scoped && tv.cells.size() == ev.cells.size() &&
          !ev.cells.empty()) {
        auto elems = static_cast<std::size_t>(ev.type.element_count());
        for (std::size_t i = 0; i < ev.cells.size(); ++i)
          ev.cells[i] = merge_id(i / elems, tv.cells[i], ev.cells[i]);
      }
    }
  }

  void exec_for(const ir::ForStmt& f, const Mask& m) {
    if (f.init) exec_stmt(*f.init, m);
    Mask active = m;
    while (true) {
      count_step();  // back-edge, like the interpreter's watchdog
      if (f.cond) {
        IdVec c = eval(*f.cond, active);
        prune(active, c, "loop bound");
      }
      if (!any(active)) break;
      exec_block(*f.body, active);
      for (int l = 0; l < nlanes_; ++l)
        if (returned_[static_cast<std::size_t>(l)])
          active[static_cast<std::size_t>(l)] = 0;
      if (!any(active)) break;
      if (f.inc) exec_stmt(*f.inc, active);
    }
  }

  void exec_while(const ir::WhileStmt& w, const Mask& m) {
    Mask active = m;
    while (true) {
      count_step();
      IdVec c = eval(*w.cond, active);
      prune(active, c, "while condition");
      if (!any(active)) break;
      exec_block(*w.body, active);
      for (int l = 0; l < nlanes_; ++l)
        if (returned_[static_cast<std::size_t>(l)])
          active[static_cast<std::size_t>(l)] = 0;
    }
  }

  /// Loop conditions must fold to constants per lane (trip counts are part
  /// of the proof obligation, not the symbolic environment).
  void prune(Mask& active, const IdVec& c, const char* what) {
    for (int l = 0; l < nlanes_; ++l) {
      auto li = static_cast<std::size_t>(l);
      if (!active[li]) continue;
      if (c[li] == kInv)
        throw Abort{std::string(what) + " reads an uninitialized value"};
      Value cv;
      if (!ar_.constant(c[li], &cv))
        throw Abort{std::string("symbolic ") + what +
                    " (data-dependent trip count)"};
      if (!cv.truthy()) active[li] = 0;
    }
  }

  // ---------------- state ----------------
  const ir::Kernel& kernel_;
  Dim3 grid_, block_;
  const std::vector<SymArg>& args_;
  SymArena& ar_;
  SymExecOptions opt_;
  int nlanes_ = 0;
  std::vector<GBuf> globals_;
  std::vector<SymRace> races_;
  std::int64_t steps_ = 0;

  std::shared_ptr<const BoundKernel> bound_;
  /// Per-block variables, indexed by the binder's slot ids.
  std::vector<Var> frame_;
  /// Geometry lane vectors, indexed by Geom code.
  IdVec geom_[kGeomCount];
  Mask returned_;
  std::int64_t epoch_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t blk_ = 0;
  int div_depth_ = 0;
  /// One per-lane branch-predicate vector per symbolic-divergence level
  /// (kInv = lane is unconditional at that level).
  std::vector<IdVec> preds_;
  int shfl_depth_ = 0;
};

}  // namespace

SymExecResult sym_execute(const ir::Kernel& kernel, Dim3 grid, Dim3 block,
                          const std::vector<SymArg>& args, SymArena& arena,
                          const SymExecOptions& opt) {
  return Exec(kernel, grid, block, args, arena, opt).run();
}

// ---------------------------------------------------------------------------
// SymEvaluator
// ---------------------------------------------------------------------------

bool SymEvaluator::eval(std::uint32_t id, Value* out) {
  if (id == SymArena::kInvalid) return false;
  auto it = memo_.find(id);
  if (it != memo_.end()) {
    *out = it->second;
    return true;
  }
  const SymNode& n = arena_.node(id);
  Value r;
  try {
    switch (n.kind) {
      case SymKind::kConstInt: r = Value::of_int(n.ival); break;
      case SymKind::kConstFloat: r = Value::of_float(n.fval); break;
      case SymKind::kInput:
        if (n.type != ir::ScalarType::kFloat) return false;  // never built
        r = Value::of_float(sym_float_input(seed_, n.param, n.ival));
        break;
      case SymKind::kBin: {
        Value a, b;
        if (!eval(n.kids[0], &a) || !eval(n.kids[1], &b)) return false;
        r = ops::apply_binop(static_cast<ir::BinOp>(n.op), a, b, sym_fail);
        break;
      }
      case SymKind::kUnary: {
        Value a;
        if (!eval(n.kids[0], &a)) return false;
        r = ops::apply_unop(static_cast<ir::UnOp>(n.op), a);
        break;
      }
      case SymKind::kCall: {
        std::vector<Value> xs(n.kids.size());
        for (std::size_t i = 0; i < n.kids.size(); ++i)
          if (!eval(n.kids[i], &xs[i])) return false;
        r = call_value(static_cast<Builtin>(n.op), xs);
        break;
      }
      case SymKind::kCast: {
        Value a;
        if (!eval(n.kids[0], &a)) return false;
        r = ops::coerce(a, static_cast<ir::ScalarType>(n.op));
        break;
      }
      case SymKind::kSelect: {
        // Lazy like the branch it models: the untaken side may hold a
        // gather whose index is out of range on this lane.
        Value c;
        if (!eval(n.kids[0], &c) || !eval(n.kids[c.truthy() ? 1 : 2], &r))
          return false;
        break;
      }
      case SymKind::kGather: {
        Value iv;
        if (!eval(n.kids[0], &iv)) return false;
        std::int64_t i = iv.as_i();
        auto ncells = static_cast<std::int64_t>(n.kids.size()) - 1;
        if (i < 0 || i >= ncells) return false;
        if (!eval(n.kids[static_cast<std::size_t>(1 + i)], &r)) return false;
        break;
      }
      case SymKind::kNary: {
        if (!eval(n.kids[0], &r)) return false;
        auto op = static_cast<SymNaryOp>(n.op);
        for (std::size_t i = 1; i < n.kids.size(); ++i) {
          Value x;
          if (!eval(n.kids[i], &x)) return false;
          r = combine_nary(op, r, x);
        }
        break;
      }
    }
  } catch (const SymFault&) {
    return false;
  }
  memo_.emplace(id, r);
  *out = r;
  return true;
}

}  // namespace cudanp::sim
