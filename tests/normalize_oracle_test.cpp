// SymArena::normalize against the prefix-by-prefix normalizer it
// replaced (tests/prefix_normalizer.hpp). Over a seeded corpus of
// expressions — left-deep, right-deep and balanced chains with constants
// at several depths, -0.0, int * 1.0f, nested sub/neg, min/max with
// duplicate operands, select(x<y,x,y), mixed int/float chains — both
// must induce the same equivalence and, sharing one arena, must intern
// the very same canonical node for every expression.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "prefix_normalizer.hpp"
#include "sim/symexec.hpp"
#include "support/rng.hpp"

namespace cudanp {
namespace {

using ir::BinOp;
using ir::ScalarType;
using sim::Builtin;
using sim::SymArena;

/// Deterministic expression generator over one arena.
class Corpus {
 public:
  Corpus(SymArena& a, std::uint64_t seed) : a_(a), rng_(seed) {}

  std::uint64_t pick(std::uint64_t n) { return rng_.next_u64() % n; }

  std::uint32_t leaf() {
    static const double kFloats[] = {0.0,  -0.0, 1.0,  -1.0, 0.5, 3.0,
                                     0.1,  0.2,  0.3,  1e8,  1e-8, -2.5};
    static const std::int64_t kInts[] = {0, 1, -1, 2, 3, 7};
    switch (pick(5)) {
      case 0:
      case 1:
        return a_.input(0, static_cast<std::int64_t>(pick(6)),
                        ScalarType::kFloat);
      case 2:
        return a_.input(1, static_cast<std::int64_t>(pick(3)),
                        ScalarType::kInt);
      case 3: return a_.cfloat(kFloats[pick(std::size(kFloats))]);
      default: return a_.cint(kInts[pick(std::size(kInts))]);
    }
  }

  /// Joins `terms` with `join` as a left-deep, right-deep or balanced
  /// tree.
  std::uint32_t shape(
      const std::vector<std::uint32_t>& terms, int shape_kind,
      const std::function<std::uint32_t(std::uint32_t, std::uint32_t)>& join) {
    if (shape_kind == 0) {
      std::uint32_t acc = terms[0];
      for (std::size_t i = 1; i < terms.size(); ++i) acc = join(acc, terms[i]);
      return acc;
    }
    if (shape_kind == 1) {
      std::uint32_t acc = terms.back();
      for (std::size_t i = terms.size() - 1; i-- > 0;)
        acc = join(terms[i], acc);
      return acc;
    }
    std::function<std::uint32_t(std::size_t, std::size_t)> rec =
        [&](std::size_t lo, std::size_t hi) -> std::uint32_t {
      if (hi - lo == 1) return terms[lo];
      std::size_t mid = (lo + hi) / 2;
      return join(rec(lo, mid), rec(mid, hi));
    };
    return rec(0, terms.size());
  }

  std::function<std::uint32_t(std::uint32_t, std::uint32_t)> joiner(int op) {
    switch (op) {
      case 0: return [this](auto x, auto y) { return a_.bin(BinOp::kAdd, x, y); };
      case 1: return [this](auto x, auto y) { return a_.bin(BinOp::kMul, x, y); };
      case 2: return [this](auto x, auto y) { return a_.bin(BinOp::kSub, x, y); };
      case 3:
        return [this](auto x, auto y) {
          return a_.call(pick(2) ? Builtin::kMin : Builtin::kFminf, {x, y});
        };
      case 4:
        return [this](auto x, auto y) {
          return a_.call(pick(2) ? Builtin::kMax : Builtin::kFmaxf, {x, y});
        };
      default:
        // Mixed + / - / * chain.
        return [this](auto x, auto y) {
          static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul};
          return a_.bin(kOps[pick(3)], x, y);
        };
    }
  }

  /// A random expression: chains of sub-expressions, negations, casts,
  /// select-over-less and comparisons, nested up to `depth`.
  std::uint32_t expr(int depth) {
    if (depth <= 0) return leaf();
    switch (pick(9)) {
      case 0: return leaf();
      case 1: return a_.un(ir::UnOp::kNeg, expr(depth - 1));
      case 2:
        // float -> int casts of folded infinities would be UB; int data
        // only ever casts to float.
        return pick(2) ? a_.cast(ScalarType::kFloat, expr(depth - 1))
                       : a_.cast(ScalarType::kFloat,
                                 a_.input(1, static_cast<std::int64_t>(pick(3)),
                                          ScalarType::kInt));
      case 3: {
        std::uint32_t x = expr(depth - 1), y = expr(depth - 1);
        std::uint32_t c = a_.bin(pick(2) ? BinOp::kLt : BinOp::kGt, x, y);
        return pick(2) ? a_.select(c, x, y) : a_.select(c, y, x);
      }
      default: {
        std::vector<std::uint32_t> terms(2 + pick(5));
        for (auto& t : terms) t = expr(depth - 1);
        if (pick(3) == 0) terms.push_back(terms[pick(terms.size())]);
        return shape(terms, static_cast<int>(pick(3)),
                     joiner(static_cast<int>(pick(6))));
      }
    }
  }

  /// One family: the same operands under every chain shape and a
  /// shuffled order, plus random neighbours. Members of a family are
  /// often equal after normalization; neighbours usually are not.
  void family(std::vector<std::uint32_t>* out) {
    std::vector<std::uint32_t> terms(2 + pick(8));
    for (auto& t : terms) t = expr(static_cast<int>(pick(3)));
    const int op = static_cast<int>(pick(6));
    for (int s = 0; s < 3; ++s) out->push_back(shape(terms, s, joiner(op)));
    for (std::size_t i = terms.size(); i > 1; --i)
      std::swap(terms[i - 1], terms[pick(i)]);
    out->push_back(shape(terms, static_cast<int>(pick(3)), joiner(op)));
    out->push_back(expr(3));
  }

 private:
  SymArena& a_;
  SplitMix64 rng_;
};

/// Hand-picked cases the canonical form must keep exactly.
std::vector<std::uint32_t> edge_cases(SymArena& a) {
  auto x = a.input(0, 0, ScalarType::kFloat);
  auto y = a.input(0, 1, ScalarType::kFloat);
  auto z = a.input(0, 2, ScalarType::kFloat);
  auto i = a.input(1, 0, ScalarType::kInt);
  auto add = [&](auto p, auto q) { return a.bin(BinOp::kAdd, p, q); };
  auto sub = [&](auto p, auto q) { return a.bin(BinOp::kSub, p, q); };
  auto mul = [&](auto p, auto q) { return a.bin(BinOp::kMul, p, q); };
  auto neg = [&](auto p) { return a.un(ir::UnOp::kNeg, p); };
  auto fmin = [&](auto p, auto q) { return a.call(Builtin::kFminf, {p, q}); };
  auto fmax = [&](auto p, auto q) { return a.call(Builtin::kFmaxf, {p, q}); };
  auto c = [&](double v) { return a.cfloat(v); };
  const auto sx = fmax(x, c(-0.0));
  const auto sn = fmin(c(0.0), add(y, c(1.0)));
  return {
      // -0.0 folds and neutral drops.
      add(x, c(-0.0)), add(c(-0.0), x), x, add(add(x, c(-0.0)), c(0.0)),
      add(c(-0.0), c(-0.0)), add(add(x, c(-0.0)), c(-0.0)),
      mul(x, c(-0.0)), mul(neg(x), c(0.0)),
      // Constants folded in tree order: f32 makes the grouping visible.
      add(add(add(x, c(1e8)), c(1.0)), c(-1e8)),
      add(add(x, c(1e8)), add(c(1.0), c(-1e8))),
      add(add(x, c(1e8)), add(add(y, c(-1e8)), c(1.0))), add(x, y),
      add(add(c(0.1), x), add(c(0.2), c(0.3))),
      add(add(add(c(0.1), x), c(0.2)), c(0.3)),
      // int * 1.0f keeps the int operand, and its type, under neg.
      mul(i, c(1.0)), i, neg(mul(i, c(1.0))), neg(i), mul(neg(i), c(1.0)),
      add(mul(i, c(1.0)), x), add(i, x), add(mul(i, a.cint(1)), y),
      // Nested sub / neg.
      sub(x, sub(y, z)), add(sub(x, y), z), neg(neg(x)), neg(sub(x, y)),
      sub(y, x), sub(neg(x), neg(y)), mul(neg(x), neg(y)), mul(x, y),
      sub(x, neg(neg(add(y, z)))), sub(x, add(y, z)),
      neg(mul(neg(x), c(-1.0))), neg(mul(c(2.0), neg(x))),
      // min/max with duplicate operands, and select over less.
      fmin(x, x), fmin(fmin(x, y), fmin(y, x)), fmin(x, y),
      fmax(fmax(x, y), x), fmax(x, y), fmin(fmax(x, x), y),
      a.select(a.bin(BinOp::kLt, x, y), x, y),
      a.select(a.bin(BinOp::kLt, x, y), y, x),
      a.select(a.bin(BinOp::kGt, y, x), x, y),
      fmin(a.select(a.bin(BinOp::kLt, x, y), x, y), z), fmin(fmin(x, y), z),
      // Shared min/max sub-chains (DAGs) carrying constants and +-0 ties.
      fmax(sx, fmax(c(0.0), sx)), fmax(fmax(c(0.0), sx), sx), fmax(sx, c(0.0)),
      fmax(fmax(sx, sx), fmax(c(0.0), fmax(sx, y))), fmax(fmax(x, y), c(-0.0)),
      fmin(fmin(sn, c(-0.0)), fmin(sn, fmin(sn, z))), fmin(sn, z),
      fmin(fmax(sx, sx), fmax(sx, y)),
      // Mixed int / float chains.
      add(add(i, a.cint(2)), c(0.5)), add(i, add(a.cint(2), c(0.5))),
      add(add(i, c(0.5)), a.cint(2)), mul(mul(i, a.cint(3)), x),
      mul(i, mul(a.cint(3), x)), add(add(i, a.cint(0)), c(-0.0)),
  };
}

std::vector<std::uint32_t> corpus(SymArena& a) {
  std::vector<std::uint32_t> out = edge_cases(a);
  Corpus gen(a, 0x5eed);
  for (int f = 0; f < 300; ++f) gen.family(&out);
  return out;
}

TEST(NormalizeOracle, SameEquivalenceAsPrefixNormalizer) {
  // Separate arenas: each normalizer sees only its own interning.
  SymArena old_arena, new_arena;
  const std::vector<std::uint32_t> old_ids = corpus(old_arena);
  const std::vector<std::uint32_t> new_ids = corpus(new_arena);
  ASSERT_EQ(old_ids, new_ids);  // deterministic corpus
  testing::PrefixNormalizer oracle(old_arena);
  std::vector<std::uint32_t> old_norm, new_norm;
  for (auto id : old_ids) old_norm.push_back(oracle.normalize(id));
  for (auto id : new_ids) new_norm.push_back(new_arena.normalize(id));

  int equal_pairs = 0;
  for (std::size_t p = 0; p < old_norm.size(); ++p)
    for (std::size_t q = p + 1; q < old_norm.size(); ++q) {
      const bool old_eq = old_norm[p] == old_norm[q];
      ASSERT_EQ(old_eq, new_norm[p] == new_norm[q])
          << "expressions " << p << " and " << q << ": "
          << old_arena.str(old_ids[p]) << " vs "
          << old_arena.str(old_ids[q]);
      equal_pairs += old_eq && old_ids[p] != old_ids[q];
    }
  // The corpus must exercise the relation, not just raw identity.
  EXPECT_GT(equal_pairs, 100);
}

TEST(NormalizeOracle, InternsTheSameCanonicalNode) {
  SymArena a;
  const std::vector<std::uint32_t> ids = corpus(a);
  testing::PrefixNormalizer oracle(a);
  for (auto id : ids)
    ASSERT_EQ(a.normalize(id), oracle.normalize(id)) << a.str(id);
}

TEST(NormalizeOracle, SharedMinMaxChainIsWalkedOncePerNode) {
  // m = fmaxf(m, m), forty times: 41 distinct chain nodes but 2^40
  // paths from the root. Each shared sub-chain is opened once.
  SymArena a;
  auto m = a.call(Builtin::kFmaxf, {a.input(0, 0, ScalarType::kFloat),
                                    a.cfloat(-0.0)});
  for (int k = 0; k < 40; ++k) m = a.call(Builtin::kFmaxf, {m, m});
  const std::size_t kids = a.kid_entries();
  testing::PrefixNormalizer oracle(a);
  const std::uint32_t norm = a.normalize(m);
  EXPECT_LT(a.kid_entries() - kids, 8u);
  EXPECT_EQ(norm, oracle.normalize(m));
}

}  // namespace
}  // namespace cudanp
