// Symbolic expressions — model documented in sim/symexec.hpp. The
// executor is the VM's symbolic value domain (sim/symvm.cpp).
//
// Layout of this file:
//   1. helpers over the shared scalar semantics (sim/ops.hpp), used by
//      constant folding and SymEvaluator
//   2. SymArena: hash-consing, eager folding builders, normalization
//   3. SymEvaluator
#include "sim/symexec.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

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
