// Test-only oracle: the prefix-by-prefix normalizer SymArena used before
// AC chains were flattened in one walk per compared root. It normalizes
// every raw chain node on its own, builds a sorted, interned kNary for
// each prefix and splices it into its parent, so it is quadratic in
// chain length — fine for the small corpora that pin the linear-time
// normalizer to the same canonical forms.
//
// The body is the old SymArena::normalize / make_nary verbatim, with
// private member access replaced by the arena's public builders. Its
// results are interned into the arena it is given, so they are ids
// comparable with SymArena::normalize's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/ops.hpp"
#include "sim/symexec.hpp"

namespace cudanp::testing {

class PrefixNormalizer {
 public:
  explicit PrefixNormalizer(sim::SymArena& arena) : a_(arena) {}

  std::uint32_t normalize(std::uint32_t id) {
    using ir::BinOp;
    using ir::ScalarType;
    using ir::UnOp;
    using sim::Builtin;
    using sim::SymKind;
    using sim::SymNaryOp;
    using sim::Value;
    if (id == sim::SymArena::kInvalid) return id;
    auto it = norm_memo_.find(id);
    if (it != norm_memo_.end()) return it->second;
    const sim::SymNode n = a_.node(id);  // copy: builders below may grow
    const std::vector<std::uint32_t> kids(a_.kids(id).begin(),
                                          a_.kids(id).end());
    std::uint32_t r = id;
    switch (n.kind) {
      case SymKind::kConstInt:
      case SymKind::kConstFloat:
      case SymKind::kInput:
      case SymKind::kNary:
        r = id;
        break;
      case SymKind::kBin: {
        std::uint32_t a = normalize(kids[0]);
        std::uint32_t b = normalize(kids[1]);
        auto op = static_cast<BinOp>(n.op);
        switch (op) {
          case BinOp::kAdd:
            r = make_nary(SymNaryOp::kAdd, n.type, {a, b});
            break;
          case BinOp::kSub:
            r = make_nary(SymNaryOp::kAdd, n.type,
                          {a, make_nary(SymNaryOp::kMul, a_.node(b).type,
                                        {a_.cint(-1), b})});
            break;
          case BinOp::kMul:
            r = make_nary(SymNaryOp::kMul, n.type, {a, b});
            break;
          case BinOp::kGt: r = a_.bin(BinOp::kLt, b, a); break;
          case BinOp::kGe: r = a_.bin(BinOp::kLe, b, a); break;
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLAnd:
          case BinOp::kLOr:
          case BinOp::kBitAnd:
          case BinOp::kBitOr:
          case BinOp::kBitXor:
            if (a > b) std::swap(a, b);
            r = a_.bin(op, a, b);
            break;
          default: r = a_.bin(op, a, b); break;
        }
        break;
      }
      case SymKind::kUnary: {
        std::uint32_t a = normalize(kids[0]);
        if (static_cast<UnOp>(n.op) == UnOp::kNeg)
          r = make_nary(SymNaryOp::kMul, a_.node(a).type, {a_.cint(-1), a});
        else
          r = a_.un(UnOp::kLNot, a);
        break;
      }
      case SymKind::kCall: {
        std::vector<std::uint32_t> nk;
        nk.reserve(kids.size());
        for (auto k : kids) nk.push_back(normalize(k));
        auto fn = static_cast<Builtin>(n.op);
        if (fn == Builtin::kMin || fn == Builtin::kFminf)
          r = make_nary(SymNaryOp::kMin, n.type, std::move(nk));
        else if (fn == Builtin::kMax || fn == Builtin::kFmaxf)
          r = make_nary(SymNaryOp::kMax, n.type, std::move(nk));
        else
          r = a_.call(fn, std::move(nk));
        break;
      }
      case SymKind::kCast:
        r = a_.cast(static_cast<ScalarType>(n.op), normalize(kids[0]));
        break;
      case SymKind::kSelect: {
        std::uint32_t c = normalize(kids[0]);
        std::uint32_t t = normalize(kids[1]);
        std::uint32_t e = normalize(kids[2]);
        Value cv;
        if (a_.constant(c, &cv)) {
          r = cv.truthy() ? t : e;
          break;
        }
        if (t == e) {
          r = t;
          break;
        }
        const sim::SymNode cn = a_.node(c);
        bool made = false;
        if (cn.kind == SymKind::kBin) {
          auto cop = static_cast<BinOp>(cn.op);
          if (cop == BinOp::kLt || cop == BinOp::kLe) {
            std::uint32_t x = a_.kids(c)[0], y = a_.kids(c)[1];
            ScalarType ty = (a_.node(t).type == ScalarType::kFloat ||
                             a_.node(e).type == ScalarType::kFloat)
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
        if (!made) r = a_.select(c, t, e);
        break;
      }
      case SymKind::kGather: {
        std::uint32_t idx = normalize(kids[0]);
        std::vector<std::uint32_t> cells;
        cells.reserve(kids.size() - 1);
        for (std::size_t i = 1; i < kids.size(); ++i)
          cells.push_back(normalize(kids[i]));
        r = a_.gather(idx, cells, n.type);
        break;
      }
    }
    norm_memo_[id] = r;
    return r;
  }

 private:
  static sim::Value combine_nary(sim::SymNaryOp op, sim::Value a,
                                 sim::Value b) {
    auto fail = [](const char* text) { throw sim::SymFault{text}; };
    switch (op) {
      case sim::SymNaryOp::kAdd:
        return sim::ops::apply_binop<ir::BinOp::kAdd>(a, b, fail);
      case sim::SymNaryOp::kMul:
        return sim::ops::apply_binop<ir::BinOp::kMul>(a, b, fail);
      case sim::SymNaryOp::kMin:
        return sim::ops::apply_math(*sim::ops::math_op(sim::Builtin::kMin),
                                    a, b);
      case sim::SymNaryOp::kMax:
        return sim::ops::apply_math(*sim::ops::math_op(sim::Builtin::kMax),
                                    a, b);
    }
    return a;
  }

  std::uint32_t make_nary(sim::SymNaryOp op, ir::ScalarType type,
                          std::vector<std::uint32_t> operands) {
    using ir::ScalarType;
    using sim::SymKind;
    using sim::SymNaryOp;
    using sim::Value;
    // Flatten same-op sub-chains (AC), fold constants in encounter order,
    // drop the neutral element (0 for +, 1 for *), dedupe idempotent
    // min/max operands, sort by interned id.
    std::vector<std::uint32_t> flat;
    for (auto o : operands) {
      const sim::SymNode& on = a_.node(o);
      if (on.kind == SymKind::kNary && static_cast<SymNaryOp>(on.op) == op) {
        auto ok = a_.kids(o);
        flat.insert(flat.end(), ok.begin(), ok.end());
      } else {
        flat.push_back(o);
      }
    }
    bool have_c = false;
    Value acc{};
    std::vector<std::uint32_t> rest;
    bool any_float = type == ScalarType::kFloat;
    for (auto o : flat) {
      Value v;
      if (a_.constant(o, &v)) {
        acc = have_c ? combine_nary(op, acc, v) : v;
        have_c = true;
      } else {
        rest.push_back(o);
        any_float = any_float || a_.node(o).type == ScalarType::kFloat;
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
        rest.push_back(acc.is_float() ? a_.cfloat(acc.f) : a_.cint(acc.i));
    }
    if (!std::is_sorted(rest.begin(), rest.end()))
      std::sort(rest.begin(), rest.end());
    if (op == SymNaryOp::kMin || op == SymNaryOp::kMax)
      rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
    if (rest.size() == 1) return rest[0];
    return a_.nary(op, any_float ? ScalarType::kFloat : ScalarType::kInt,
                   std::move(rest));
  }

  sim::SymArena& a_;
  std::unordered_map<std::uint32_t, std::uint32_t> norm_memo_;
};

}  // namespace cudanp::testing
