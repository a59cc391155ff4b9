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
#include <initializer_list>
#include <optional>
#include <sstream>
#include <unordered_map>

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

std::uint64_t hash_node(const SymNode& n, std::span<const std::uint32_t> kids) {
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
  for (auto k : kids) mix(k);
  // FNV's low bits are weak; the index probes with them.
  h ^= h >> 31;
  h *= 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

/// Bit-equality on fval so NaN / -0.0 intern consistently.
bool same_head(const SymNode& a, const SymNode& b) {
  return a.kind == b.kind && a.type == b.type && a.op == b.op &&
         a.param == b.param && a.ival == b.ival &&
         std::memcmp(&a.fval, &b.fval, sizeof a.fval) == 0;
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

std::uint32_t SymArena::intern(const SymNode& head,
                               std::span<const std::uint32_t> kids) {
  const std::uint64_t h = hash_node(head, kids);
  if (2 * (nodes_.size() + 1) > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = h & mask;
  for (; index_[slot] != kInvalid; slot = (slot + 1) & mask) {
    const std::uint32_t id = index_[slot];
    const SymNode& n = nodes_[id];
    if (hashes_[id] == h && same_head(n, head) &&
        n.kid_count == kids.size() &&
        std::equal(kids.begin(), kids.end(),
                   kid_pool_.begin() + n.kid_begin))
      return id;
  }
  if (kid_pool_.size() + kids.size() > kInvalid)
    throw SymFault{"symbolic expression pool exhausted"};
  SymNode n = head;
  n.kid_begin = static_cast<std::uint32_t>(kid_pool_.size());
  n.kid_count = static_cast<std::uint32_t>(kids.size());
  kid_pool_.insert(kid_pool_.end(), kids.begin(), kids.end());
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(n);
  hashes_.push_back(h);
  index_[slot] = id;
  return id;
}

void SymArena::grow_index() {
  const std::size_t size = std::max<std::size_t>(1024, 2 * index_.size());
  index_.assign(size, kInvalid);
  const std::size_t mask = size - 1;
  for (std::uint32_t id = 0; id < nodes_.size(); ++id)
    for (std::size_t slot = hashes_[id] & mask;; slot = (slot + 1) & mask)
      if (index_[slot] == kInvalid) {
        index_[slot] = id;
        break;
      }
}

std::uint32_t SymArena::cint(std::int64_t v) {
  SymNode n;
  n.kind = SymKind::kConstInt;
  n.type = ScalarType::kInt;
  n.ival = v;
  return intern(n, {});
}

std::uint32_t SymArena::cfloat(double v) {
  SymNode n;
  n.kind = SymKind::kConstFloat;
  n.type = ScalarType::kFloat;
  n.fval = Value::of_float(v).to_f32().f;
  return intern(n, {});
}

std::uint32_t SymArena::input(std::int32_t param, std::int64_t elem,
                              ScalarType type) {
  SymNode n;
  n.kind = SymKind::kInput;
  n.type = type;
  n.param = param;
  n.ival = elem;
  return intern(n, {});
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
  const std::uint32_t kids[] = {a, b};
  return intern(n, kids);
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
  return intern(n, {&a, 1});
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
  return intern(n, kids);
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
  return intern(n, {&a, 1});
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
  const std::uint32_t kids[] = {c, a, b};
  return intern(n, kids);
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
  std::vector<std::uint32_t> kids;
  kids.reserve(cells.size() + 1);
  kids.push_back(idx);
  kids.insert(kids.end(), cells.begin(), cells.end());
  return intern(n, kids);
}

std::uint32_t SymArena::nary(SymNaryOp op, ScalarType type,
                             std::vector<std::uint32_t> kids) {
  SymNode n;
  n.kind = SymKind::kNary;
  n.op = static_cast<std::uint8_t>(op);
  n.type = type;
  return intern(n, kids);
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

/// The AC chain a raw node belongs to when normalized, if any: add/sub
/// to +, mul and neg (-1 * x) to *, the min/max builtins to min/max.
std::optional<SymNaryOp> chain_op(const SymNode& n) {
  switch (n.kind) {
    case SymKind::kBin:
      switch (static_cast<BinOp>(n.op)) {
        case BinOp::kAdd:
        case BinOp::kSub: return SymNaryOp::kAdd;
        case BinOp::kMul: return SymNaryOp::kMul;
        default: return std::nullopt;
      }
    case SymKind::kUnary:
      if (static_cast<UnOp>(n.op) == UnOp::kNeg) return SymNaryOp::kMul;
      return std::nullopt;
    case SymKind::kCall:
      switch (static_cast<Builtin>(n.op)) {
        case Builtin::kMin:
        case Builtin::kFminf: return SymNaryOp::kMin;
        case Builtin::kMax:
        case Builtin::kFmaxf: return SymNaryOp::kMax;
        default: return std::nullopt;
      }
    default: return std::nullopt;
  }
}

bool is_neg(const SymNode& n) {
  return n.kind == SymKind::kUnary && static_cast<UnOp>(n.op) == UnOp::kNeg;
}

bool is_sub(const SymNode& n) {
  return n.kind == SymKind::kBin && static_cast<BinOp>(n.op) == BinOp::kSub;
}

/// One level of an AC chain: the canonical form is defined as if every
/// raw chain node were normalized on its own (as `make_nary(op, type,
/// operands)`) and its result spliced into its parent. A level folds its
/// constants in operand order, so constants merge in tree order; its
/// non-constant operands are appended to a buffer shared by the whole
/// walk, from `begin` on, and are only sorted once, at the root.
struct Level {
  SymNaryOp op;
  ScalarType type;
  std::size_t begin;
  bool have_c = false;
  Value acc{};
  bool rest_float = false;  // some non-constant operand is float
};

void fold(Level& l, Value v) {
  l.acc = l.have_c ? combine_nary(l.op, l.acc, v) : v;
  l.have_c = true;
}

/// Adds one normalized operand to a level: a constant folds, a same-op
/// kNary contributes its operands, anything else is an operand itself.
void absorb(const SymArena& ar, Level& l, std::uint32_t o,
            std::vector<std::uint32_t>& rest) {
  auto one = [&](std::uint32_t x) {
    Value v;
    if (ar.constant(x, &v)) {
      fold(l, v);
    } else {
      rest.push_back(x);
      l.rest_float = l.rest_float || ar.node(x).type == ScalarType::kFloat;
    }
  };
  const SymNode& n = ar.node(o);
  if (n.kind == SymKind::kNary && static_cast<SymNaryOp>(n.op) == l.op) {
    for (auto k : ar.kids(o)) one(k);
  } else {
    one(o);
  }
}

/// Whether the folded constant stays an operand: it is dropped when it
/// is the neutral element (0 for +, 1 for *) and anything else is left.
bool keeps_constant(const Level& l, std::size_t operands) {
  if (!l.have_c) return false;
  bool neutral = false;
  if (l.op == SymNaryOp::kAdd)
    neutral = l.acc.is_float() ? l.acc.f == 0.0 : l.acc.i == 0;
  else if (l.op == SymNaryOp::kMul)
    neutral = l.acc.is_float() ? l.acc.f == 1.0 : l.acc.i == 1;
  return !neutral || operands == 0;
}

bool any_float(const Level& l) {
  return l.type == ScalarType::kFloat || l.rest_float ||
         (l.have_c && l.acc.is_float());
}

/// Interns the root level: operands sorted by id (deduplicated for the
/// idempotent min/max), a lone operand returned as itself.
std::uint32_t close_root(SymArena& ar, const Level& l,
                         std::vector<std::uint32_t> rest) {
  if (keeps_constant(l, rest.size()))
    rest.push_back(l.acc.is_float() ? ar.cfloat(l.acc.f) : ar.cint(l.acc.i));
  if (!std::is_sorted(rest.begin(), rest.end()))
    std::sort(rest.begin(), rest.end());
  if (l.op == SymNaryOp::kMin || l.op == SymNaryOp::kMax)
    rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
  if (rest.size() == 1) return rest[0];
  return ar.nary(l.op, any_float(l) ? ScalarType::kFloat : ScalarType::kInt,
                 std::move(rest));
}

/// Canonical chain over already-normalized operands: flattens same-op
/// kNary operands, folds constants in operand order, drops the neutral
/// element, sorts.
std::uint32_t make_nary(SymArena& ar, SymNaryOp op, ScalarType type,
                        std::initializer_list<std::uint32_t> operands) {
  Level l{op, type, 0};
  std::vector<std::uint32_t> rest;
  for (auto o : operands) absorb(ar, l, o, rest);
  return close_root(ar, l, std::move(rest));
}

}  // namespace

std::uint32_t SymArena::flatten(std::uint32_t root, SymNaryOp op) {
  // Post-order walk over the raw chain with an explicit stack (chains
  // are as deep as the loops that built them). Each frame is one chain
  // node and the make_nary level it stands for.
  struct Frame {
    std::uint32_t id;
    std::uint32_t next = 0;  // next kid to visit
    Level level;
  };
  std::vector<std::uint32_t> rest;
  std::vector<Frame> stack;
  // min and max are idempotent and deduplicate at the root, so a
  // sub-chain met again (a DAG such as m = fmaxf(m, m) repeated) splices
  // its first walk's level instead of being walked once per path.
  const bool idempotent = op == SymNaryOp::kMin || op == SymNaryOp::kMax;
  std::unordered_map<std::uint32_t, Level> walked;
  // Splices a finished level into its parent: its operands are already
  // in `rest`; its constant survives as make_nary would keep it, rounded
  // like the cfloat node that would carry it.
  auto splice = [](Level& parent, const Level& done, bool kept) {
    parent.rest_float = parent.rest_float || done.rest_float;
    if (kept)
      fold(parent, done.acc.is_float() ? done.acc.to_f32() : done.acc);
  };
  auto open = [&](std::uint32_t id) {
    const SymNode& n = nodes_[id];
    Frame f{id, 0, Level{op, n.type, rest.size()}};
    if (is_neg(n)) fold(f.level, Value::of_int(-1));  // neg x = -1 * x
    stack.push_back(f);
  };
  open(root);
  for (;;) {
    Frame& f = stack.back();
    const SymNode n = nodes_[f.id];  // copy: normalize below grows nodes_
    if (f.next < n.kid_count) {
      const std::uint32_t i = f.next++;
      const std::uint32_t k = kid_pool_[n.kid_begin + i];
      if (is_sub(n) && i == 1) {
        // a - b = a + (-1 * b): the product is its own canonical chain.
        const std::uint32_t b = normalize(k);
        absorb(*this, f.level,
               make_nary(*this, SymNaryOp::kMul, nodes_[b].type,
                         {cint(-1), b}),
               rest);
      } else if (chain_op(nodes_[k]) == op) {
        if (auto it = walked.find(k); it != walked.end())
          splice(f.level, it->second, it->second.have_c);  // no neutral drop
        else
          open(k);  // interior: walked, never interned
      } else {
        const std::uint32_t a = normalize(k);
        if (is_neg(n)) f.level.type = nodes_[a].type;
        absorb(*this, f.level, a, rest);
      }
      continue;
    }
    if (stack.size() == 1) return close_root(*this, f.level, std::move(rest));
    const Level done = f.level;
    if (idempotent) walked.emplace(f.id, done);
    stack.pop_back();
    Level& parent = stack.back().level;
    const std::size_t operands = rest.size() - done.begin;
    const bool kept = keeps_constant(done, operands);
    if (is_neg(nodes_[stack.back().id])) {
      // neg takes its operand's normalized type.
      if (operands == 0)
        parent.type = done.acc.is_float() ? ScalarType::kFloat
                                          : ScalarType::kInt;
      else if (operands == 1 && !kept)
        parent.type = nodes_[rest[done.begin]].type;
      else
        parent.type = any_float(done) ? ScalarType::kFloat : ScalarType::kInt;
    }
    splice(parent, done, kept);
  }
}

std::uint32_t SymArena::normalize(std::uint32_t id) {
  if (id == kInvalid) return id;
  if (id < norm_memo_.size() && norm_memo_[id] != kInvalid)
    return norm_memo_[id];
  const auto op = chain_op(nodes_[id]);
  const std::uint32_t r = op ? flatten(id, *op) : rewrite(id);
  if (id >= norm_memo_.size()) norm_memo_.resize(nodes_.size(), kInvalid);
  norm_memo_[id] = r;
  return r;
}

std::uint32_t SymArena::rewrite(std::uint32_t id) {
  const SymNode n = nodes_[id];  // copy: builders below may grow nodes_
  auto kid = [&](std::size_t i) { return kid_pool_[n.kid_begin + i]; };
  std::uint32_t r = id;
  switch (n.kind) {
    case SymKind::kConstInt:
    case SymKind::kConstFloat:
    case SymKind::kInput:
    case SymKind::kNary:  // only the normalizer creates these, canonically
      r = id;
      break;
    case SymKind::kBin: {
      std::uint32_t a = normalize(kid(0));
      std::uint32_t b = normalize(kid(1));
      auto op = static_cast<BinOp>(n.op);
      switch (op) {
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
    case SymKind::kUnary:  // kLNot; kNeg is a * chain
      r = un(UnOp::kLNot, normalize(kid(0)));
      break;
    case SymKind::kCall: {
      std::vector<std::uint32_t> kids;
      kids.reserve(n.kid_count);
      for (std::uint32_t i = 0; i < n.kid_count; ++i)
        kids.push_back(normalize(kid(i)));
      r = call(static_cast<Builtin>(n.op), std::move(kids));
      break;
    }
    case SymKind::kCast:
      r = cast(static_cast<ScalarType>(n.op), normalize(kid(0)));
      break;
    case SymKind::kSelect: {
      std::uint32_t c = normalize(kid(0));
      std::uint32_t t = normalize(kid(1));
      std::uint32_t e = normalize(kid(2));
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
          std::uint32_t x = kid_pool_[cn.kid_begin];
          std::uint32_t y = kid_pool_[cn.kid_begin + 1];
          ScalarType ty = (nodes_[t].type == ScalarType::kFloat ||
                           nodes_[e].type == ScalarType::kFloat)
                              ? ScalarType::kFloat
                              : ScalarType::kInt;
          if (t == x && e == y) {
            r = make_nary(*this, SymNaryOp::kMin, ty, {x, y});
            made = true;
          } else if (t == y && e == x) {
            r = make_nary(*this, SymNaryOp::kMax, ty, {x, y});
            made = true;
          }
        }
      }
      if (!made) r = select(c, t, e);
      break;
    }
    case SymKind::kGather: {
      std::uint32_t idx = normalize(kid(0));
      std::vector<std::uint32_t> cells;
      cells.reserve(n.kid_count - 1);
      for (std::uint32_t i = 1; i < n.kid_count; ++i)
        cells.push_back(normalize(kid(i)));
      r = gather(idx, cells, n.type);
      break;
    }
  }
  return r;
}

std::string SymArena::str(std::uint32_t id, int max_depth) const {
  if (id == kInvalid) return "<uninit>";
  const SymNode& n = nodes_[id];
  const auto kids = this->kids(id);
  if (max_depth <= 0) return "...";
  std::ostringstream os;
  auto kid = [&](std::size_t i) { return str(kids[i], max_depth - 1); };
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
      for (std::size_t i = 0; i < kids.size(); ++i)
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
      os << "gather[" << (kids.size() - 1) << "](" << kid(0) << ")";
      break;
    case SymKind::kNary: {
      static const char* kOps[] = {" + ", " * ", " min ", " max "};
      os << "(";
      for (std::size_t i = 0; i < kids.size(); ++i)
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
  const auto kids = arena_.kids(id);
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
        if (!eval(kids[0], &a) || !eval(kids[1], &b)) return false;
        r = ops::apply_binop(static_cast<ir::BinOp>(n.op), a, b, sym_fail);
        break;
      }
      case SymKind::kUnary: {
        Value a;
        if (!eval(kids[0], &a)) return false;
        r = ops::apply_unop(static_cast<ir::UnOp>(n.op), a);
        break;
      }
      case SymKind::kCall: {
        std::vector<Value> xs(kids.size());
        for (std::size_t i = 0; i < kids.size(); ++i)
          if (!eval(kids[i], &xs[i])) return false;
        r = call_value(static_cast<Builtin>(n.op), xs);
        break;
      }
      case SymKind::kCast: {
        Value a;
        if (!eval(kids[0], &a)) return false;
        r = ops::coerce(a, static_cast<ir::ScalarType>(n.op));
        break;
      }
      case SymKind::kSelect: {
        // Lazy like the branch it models: the untaken side may hold a
        // gather whose index is out of range on this lane.
        Value c;
        if (!eval(kids[0], &c) || !eval(kids[c.truthy() ? 1 : 2], &r))
          return false;
        break;
      }
      case SymKind::kGather: {
        Value iv;
        if (!eval(kids[0], &iv)) return false;
        std::int64_t i = iv.as_i();
        auto ncells = static_cast<std::int64_t>(kids.size()) - 1;
        if (i < 0 || i >= ncells) return false;
        if (!eval(kids[static_cast<std::size_t>(1 + i)], &r)) return false;
        break;
      }
      case SymKind::kNary: {
        if (!eval(kids[0], &r)) return false;
        auto op = static_cast<SymNaryOp>(n.op);
        for (std::size_t i = 1; i < kids.size(); ++i) {
          Value x;
          if (!eval(kids[i], &x)) return false;
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
