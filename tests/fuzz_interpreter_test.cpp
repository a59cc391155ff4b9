// Differential fuzzing of the kernel interpreter: seeded random
// straight-line programs are executed both by the SIMT interpreter (one
// thread) and by a direct reference evaluator over the same AST. Any
// divergence is an interpreter (or reference) bug.
//
// The generator covers: int/float scalars, the full binary operator set
// with C semantics (integer division truncation, shifts, comparisons),
// unary ops, casts, ternaries, min/max/fabs/sqrt-style calls, and
// compound assignments. Programs are generated so that division and
// modulo never see zero and shifts stay in range.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "ir/printer.hpp"
#include "sim/interpreter.hpp"
#include "sim/sanitizer.hpp"
#include "support/rng.hpp"

namespace cudanp {
namespace {

using namespace cudanp::ir;

/// Reference scalar value mirroring sim::Value semantics.
struct RefValue {
  bool is_float = false;
  std::int64_t i = 0;
  double f = 0;

  static RefValue of_int(std::int64_t v) { return {false, v, 0}; }
  static RefValue of_float(double v) {
    return {true, 0, static_cast<double>(static_cast<float>(v))};
  }
  double as_f() const { return is_float ? f : static_cast<double>(i); }
  std::int64_t as_i() const {
    return is_float ? static_cast<std::int64_t>(f) : i;
  }
  bool truthy() const { return is_float ? f != 0 : i != 0; }
};

/// Direct AST evaluator (the "oracle").
class RefEval {
 public:
  std::vector<std::pair<std::string, RefValue>> vars;

  RefValue* find(const std::string& name) {
    for (auto& [n, v] : vars)
      if (n == name) return &v;
    return nullptr;
  }

  RefValue eval(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kIntLit:
        return RefValue::of_int(static_cast<const IntLit&>(e).value);
      case ExprKind::kFloatLit:
        return RefValue::of_float(static_cast<const FloatLit&>(e).value);
      case ExprKind::kVarRef: {
        auto* v = find(static_cast<const VarRef&>(e).name);
        EXPECT_NE(v, nullptr);
        return v ? *v : RefValue{};
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        RefValue l = eval(*b.lhs);
        RefValue r = eval(*b.rhs);
        bool fl = l.is_float || r.is_float;
        switch (b.op) {
          case BinOp::kAdd:
            return fl ? RefValue::of_float(l.as_f() + r.as_f())
                      : RefValue::of_int(l.i + r.i);
          case BinOp::kSub:
            return fl ? RefValue::of_float(l.as_f() - r.as_f())
                      : RefValue::of_int(l.i - r.i);
          case BinOp::kMul:
            return fl ? RefValue::of_float(l.as_f() * r.as_f())
                      : RefValue::of_int(l.i * r.i);
          case BinOp::kDiv:
            return fl ? RefValue::of_float(l.as_f() / r.as_f())
                      : RefValue::of_int(l.i / r.i);
          case BinOp::kMod: return RefValue::of_int(l.i % r.i);
          case BinOp::kLt:
            return RefValue::of_int(fl ? l.as_f() < r.as_f() : l.i < r.i);
          case BinOp::kLe:
            return RefValue::of_int(fl ? l.as_f() <= r.as_f() : l.i <= r.i);
          case BinOp::kGt:
            return RefValue::of_int(fl ? l.as_f() > r.as_f() : l.i > r.i);
          case BinOp::kGe:
            return RefValue::of_int(fl ? l.as_f() >= r.as_f() : l.i >= r.i);
          case BinOp::kEq:
            return RefValue::of_int(fl ? l.as_f() == r.as_f() : l.i == r.i);
          case BinOp::kNe:
            return RefValue::of_int(fl ? l.as_f() != r.as_f() : l.i != r.i);
          case BinOp::kLAnd: return RefValue::of_int(l.truthy() && r.truthy());
          case BinOp::kLOr: return RefValue::of_int(l.truthy() || r.truthy());
          case BinOp::kBitAnd: return RefValue::of_int(l.as_i() & r.as_i());
          case BinOp::kBitOr: return RefValue::of_int(l.as_i() | r.as_i());
          case BinOp::kBitXor: return RefValue::of_int(l.as_i() ^ r.as_i());
          case BinOp::kShl: return RefValue::of_int(l.as_i() << r.as_i());
          case BinOp::kShr: return RefValue::of_int(l.as_i() >> r.as_i());
        }
        return {};
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        RefValue v = eval(*u.operand);
        if (u.op == UnOp::kNeg)
          return v.is_float ? RefValue::of_float(-v.f) : RefValue::of_int(-v.i);
        return RefValue::of_int(v.truthy() ? 0 : 1);
      }
      case ExprKind::kTernary: {
        const auto& t = static_cast<const TernaryExpr&>(e);
        return eval(*t.cond).truthy() ? eval(*t.then_value)
                                      : eval(*t.else_value);
      }
      case ExprKind::kCast: {
        const auto& c = static_cast<const CastExpr&>(e);
        RefValue v = eval(*c.operand);
        return c.to == ScalarType::kFloat ? RefValue::of_float(v.as_f())
                                          : RefValue::of_int(v.as_i());
      }
      case ExprKind::kCall: {
        const auto& c = static_cast<const CallExpr&>(e);
        if (c.callee == "fminf")
          return RefValue::of_float(
              std::min(eval(*c.args[0]).as_f(), eval(*c.args[1]).as_f()));
        if (c.callee == "fmaxf")
          return RefValue::of_float(
              std::max(eval(*c.args[0]).as_f(), eval(*c.args[1]).as_f()));
        if (c.callee == "fabsf")
          return RefValue::of_float(std::fabs(eval(*c.args[0]).as_f()));
        if (c.callee == "sqrtf")
          return RefValue::of_float(std::sqrt(eval(*c.args[0]).as_f()));
        ADD_FAILURE() << "unexpected call " << c.callee;
        return {};
      }
      default:
        ADD_FAILURE() << "unexpected expr kind";
        return {};
    }
  }
};

/// Random program generator.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  /// Generates a straight-line program over `nvars` variables, returning
  /// statements plus the variable declarations.
  BlockPtr generate(int nvars, int nstmts) {
    auto body = make_block();
    // Declare variables with literal initializers.
    for (int v = 0; v < nvars; ++v) {
      bool is_float = rng_.next_below(2) == 0;
      std::string name = var_name(v);
      types_.push_back(is_float ? ScalarType::kFloat : ScalarType::kInt);
      ExprPtr init = is_float
                         ? make_float(rng_.next_float(-8.0f, 8.0f))
                         : make_int(static_cast<std::int64_t>(
                               rng_.next_below(17)) - 8);
      body->push(std::make_unique<DeclStmt>(Type::scalar_of(types_.back()),
                                            name, std::move(init)));
    }
    for (int s = 0; s < nstmts; ++s) {
      int target = static_cast<int>(rng_.next_below(
          static_cast<std::uint64_t>(nvars)));
      ExprPtr rhs = expr(3);
      // Keep values bounded so no intermediate overflows int64 or floats
      // reach infinity (identical clamping on both evaluators): int
      // variables stay in (-97, 97), float variables in [-100, 100].
      if (types_[static_cast<std::size_t>(target)] == ScalarType::kInt) {
        rhs = make_bin(BinOp::kMod,
                       std::make_unique<CastExpr>(ScalarType::kInt,
                                                  std::move(rhs)),
                       make_int(97));
      } else {
        std::vector<ExprPtr> lo;
        lo.push_back(std::move(rhs));
        lo.push_back(make_float(-100.0));
        ExprPtr clamped_lo = make_call("fmaxf", std::move(lo));
        std::vector<ExprPtr> hi;
        hi.push_back(std::move(clamped_lo));
        hi.push_back(make_float(100.0));
        rhs = make_call("fminf", std::move(hi));
      }
      body->push(std::make_unique<AssignStmt>(
          make_var(var_name(target)), AssignOp::kAssign, std::move(rhs)));
    }
    return body;
  }

  [[nodiscard]] static std::string var_name(int v) {
    return "v" + std::to_string(v);
  }
  [[nodiscard]] const std::vector<ScalarType>& types() const { return types_; }

 private:
  ExprPtr expr(int depth) {
    if (depth == 0 || rng_.next_below(4) == 0) return leaf();
    switch (rng_.next_below(5)) {
      case 0:
      case 1: {  // binary, safe subset
        static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                                     BinOp::kLt,  BinOp::kGe,  BinOp::kEq,
                                     BinOp::kLAnd, BinOp::kLOr};
        BinOp op = kOps[rng_.next_below(8)];
        return make_bin(op, expr(depth - 1), expr(depth - 1));
      }
      case 2: {  // division/modulo/shift with safe right operands
        switch (rng_.next_below(3)) {
          case 0:
            return make_bin(BinOp::kDiv, expr(depth - 1),
                            make_int(1 + static_cast<std::int64_t>(
                                             rng_.next_below(7))));
          case 1:
            return make_bin(BinOp::kMod, int_expr(depth - 1),
                            make_int(1 + static_cast<std::int64_t>(
                                             rng_.next_below(7))));
          default:
            return make_bin(rng_.next_below(2) ? BinOp::kShl : BinOp::kShr,
                            int_expr(depth - 1),
                            make_int(static_cast<std::int64_t>(
                                rng_.next_below(5))));
        }
      }
      case 3: {  // unary / cast / ternary
        switch (rng_.next_below(3)) {
          case 0:
            return std::make_unique<UnaryExpr>(
                rng_.next_below(2) ? UnOp::kNeg : UnOp::kLNot,
                expr(depth - 1));
          case 1:
            return std::make_unique<CastExpr>(
                rng_.next_below(2) ? ScalarType::kInt : ScalarType::kFloat,
                expr(depth - 1));
          default:
            return std::make_unique<TernaryExpr>(
                expr(depth - 1), expr(depth - 1), expr(depth - 1));
        }
      }
      default: {  // calls
        std::vector<ExprPtr> args;
        if (rng_.next_below(2)) {
          args.push_back(expr(depth - 1));
          args.push_back(expr(depth - 1));
          return make_call(rng_.next_below(2) ? "fminf" : "fmaxf",
                           std::move(args));
        }
        args.push_back(expr(depth - 1));
        return make_call("fabsf", std::move(args));
      }
    }
  }

  /// An expression guaranteed to be integer-typed (for %, <<, >>).
  ExprPtr int_expr(int depth) {
    return std::make_unique<CastExpr>(ScalarType::kInt, expr(depth));
  }

  ExprPtr leaf() {
    switch (rng_.next_below(3)) {
      case 0:
        return make_int(static_cast<std::int64_t>(rng_.next_below(21)) - 10);
      case 1:
        return make_float(rng_.next_float(-4.0f, 4.0f));
      default:
        if (types_.empty()) return make_int(1);
        return make_var(var_name(static_cast<int>(
            rng_.next_below(types_.size()))));
    }
  }

  SplitMix64 rng_;
  std::vector<ScalarType> types_;
};

class InterpreterFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InterpreterFuzz, MatchesReferenceEvaluator) {
  const int nvars = 6;
  const int nstmts = 24;
  Generator gen(0xf022u + static_cast<std::uint64_t>(GetParam()) * 7919);
  BlockPtr body = gen.generate(nvars, nstmts);

  // Reference execution over the same AST.
  RefEval ref;
  for (const auto& s : body->stmts) {
    if (s->kind() == StmtKind::kDecl) {
      const auto& d = static_cast<const DeclStmt&>(*s);
      RefValue v = ref.eval(*d.init);
      ref.vars.emplace_back(d.name, d.type.scalar == ScalarType::kFloat
                                        ? RefValue::of_float(v.as_f())
                                        : RefValue::of_int(v.as_i()));
    } else {
      const auto& a = static_cast<const AssignStmt&>(*s);
      const auto& name = static_cast<const VarRef&>(*a.lhs).name;
      RefValue v = ref.eval(*a.rhs);
      RefValue* slot = ref.find(name);
      ASSERT_NE(slot, nullptr);
      *slot = slot->is_float ? RefValue::of_float(v.as_f())
                             : RefValue::of_int(v.as_i());
    }
  }

  // Interpreter execution: wrap in a kernel that stores every variable.
  auto kernel = std::make_unique<Kernel>();
  kernel->name = "fuzz";
  kernel->params.push_back({Type::pointer_to(ScalarType::kFloat), "out"});
  kernel->body = std::move(body);
  for (int v = 0; v < nvars; ++v) {
    kernel->body->push(make_assign(
        make_index1("out", make_int(v)),
        std::make_unique<CastExpr>(ScalarType::kFloat,
                                   make_var(Generator::var_name(v)))));
  }

  sim::DeviceMemory mem;
  auto out = mem.alloc(ScalarType::kFloat, nvars);
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {1, 1, 1};
  cfg.args = {out};
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx680();
  sim::Interpreter interp(spec, mem);
  (void)interp.run(*kernel, cfg);

  for (int v = 0; v < nvars; ++v) {
    float got = mem.buffer(out).f32()[static_cast<std::size_t>(v)];
    float want = static_cast<float>(ref.vars[static_cast<std::size_t>(v)]
                                        .second.as_f());
    // Identical operation order: results must agree to float rounding of
    // the final cast.
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "var " << v;
    } else {
      EXPECT_FLOAT_EQ(got, want)
          << "var " << v << " in program:\n"
          << ir::print_kernel(*kernel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterFuzz, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Sanitized fuzzing: deliberately hazardous kernels — shared-memory races,
// out-of-bounds indices, barriers under divergent guards, wild shfl
// selectors, uninitialized reads — must never crash the interpreter or
// escape as exceptions once a sanitizer is attached. Everything surfaces as
// HazardReports, capped by the error limit.

/// Emits a random kernel mixing every hazard class the sanitizer knows.
std::string hazardous_kernel(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::ostringstream os;
  os << "__global__ void hazmat(float* out, int n) {\n"
     << "  __shared__ float s[64];\n"
     << "  float a[8];\n"
     << "  float v = threadIdx.x;\n"
     << "  float x;\n";  // never initialized
  auto idx = [&]() -> std::string {
    switch (rng.next_below(4)) {
      case 0: return "threadIdx.x";
      case 1: return "threadIdx.x % 64";
      case 2: return "(threadIdx.x * 7) % 64";
      // Constant index, occasionally out of bounds (-> contained SimError).
      default: return std::to_string(rng.next_below(70));
    }
  };
  auto expr = [&]() -> std::string {
    switch (rng.next_below(4)) {
      case 0: return "threadIdx.x";
      case 1: return std::to_string(rng.next_below(9)) + ".5f";
      case 2: return "v";
      default: return "x";  // uninitialized read
    }
  };
  int nstmts = 6 + static_cast<int>(rng.next_below(10));
  for (int i = 0; i < nstmts; ++i) {
    switch (rng.next_below(7)) {
      case 0:
        os << "  s[" << idx() << "] = " << expr() << ";\n";
        break;
      case 1:
        os << "  v = s[" << idx() << "];\n";
        break;
      case 2:
        os << "  a[" << rng.next_below(10) << "] = " << expr() << ";\n";
        break;
      case 3:
        os << "  v = a[" << rng.next_below(10) << "];\n";
        break;
      case 4:
        // Barrier under a (possibly divergent) guard.
        os << "  if (threadIdx.x < " << (8 << rng.next_below(4))
           << ") {\n    __syncthreads();\n  }\n";
        break;
      case 5: {
        // Shfl selector anywhere in [-3, 40].
        std::int64_t sel = static_cast<std::int64_t>(rng.next_below(44)) - 3;
        os << "  v = __shfl(v, " << sel << ", 32);\n";
        break;
      }
      default:
        os << "  __syncthreads();\n";
        break;
    }
  }
  os << "  out[threadIdx.x] = v;\n}\n";
  return os.str();
}

class SanitizedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SanitizedFuzz, HazardousKernelsNeverEscapeTheSanitizer) {
  std::string src =
      hazardous_kernel(0xbad5eedu + static_cast<std::uint64_t>(GetParam()));
  auto program = frontend::parse_program_or_throw(src);
  const auto& kernel = *program->kernels.front();

  sim::SanitizerEngine::Options sopt;
  sopt.error_limit = 64;
  sim::SanitizerEngine engine(sopt);

  sim::DeviceMemory mem;
  auto out = mem.alloc(ScalarType::kFloat, 64);
  sim::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.args = {out, sim::LaunchConfig::scalar_int(64)};

  sim::Interpreter::Options iopt;
  iopt.sanitizer = &engine;
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx680();
  sim::Interpreter interp(spec, mem, iopt);
  EXPECT_NO_THROW((void)interp.run(kernel, cfg)) << src;
  EXPECT_LE(engine.reports().size(), sopt.error_limit) << src;
  // The same kernel without a sanitizer must at worst throw SimError —
  // never crash or loop (the shfl lane guard holds unconditionally).
  sim::DeviceMemory mem2;
  cfg.args = {mem2.alloc(ScalarType::kFloat, 64),
              sim::LaunchConfig::scalar_int(64)};
  sim::Interpreter plain(spec, mem2);
  try {
    (void)plain.run(kernel, cfg);
  } catch (const SimError&) {
    // expected for out-of-bounds programs
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SanitizedFuzz, ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Watchdog-bounded loop fuzzing: random loop nests whose increments are
// sometimes missing or zero — i.e. kernels that may genuinely never
// terminate — must always come back within the step budget. The
// interpreter either finishes, reports a kWatchdogTrip (sanitized), or
// throws WatchdogError (unsanitized); it can never hang. The ctest
// TIMEOUT property on this binary backs the assertion up externally.

/// Emits a kernel of random sequential loops; each loop's step is drawn
/// from {0, 1, 2}, so roughly a third of the loops never advance.
std::string loopy_kernel(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::ostringstream os;
  os << "__global__ void loopy(float* out, int n) {\n"
     << "  float v = 1.0f;\n";
  int nloops = 1 + static_cast<int>(rng.next_below(3));
  for (int l = 0; l < nloops; ++l) {
    std::uint64_t bound = 1 + rng.next_below(64);
    std::uint64_t step = rng.next_below(3);
    if (rng.next_below(2)) {
      os << "  for (int i" << l << " = 0; i" << l << " < " << bound
         << "; i" << l << " = i" << l << " + " << step << ") {\n"
         << "    v = v + 0.5f;\n  }\n";
    } else {
      os << "  int j" << l << " = 0;\n"
         << "  while (j" << l << " < " << bound << ") {\n"
         << "    v = v * 1.5f;\n"
         << "    j" << l << " = j" << l << " + " << step << ";\n  }\n";
    }
  }
  os << "  out[threadIdx.x] = v;\n}\n";
  return os.str();
}

class WatchdogFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WatchdogFuzz, LoopNestsNeverOutliveTheBudget) {
  std::string src =
      loopy_kernel(0x10075eedu + static_cast<std::uint64_t>(GetParam()));
  auto program = frontend::parse_program_or_throw(src);
  const auto& kernel = *program->kernels.front();

  sim::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {32, 1, 1};

  // Sanitized: a non-terminating draw surfaces as exactly one
  // kWatchdogTrip report, a terminating one runs clean — never an
  // exception, never a hang.
  sim::SanitizerEngine::Options sopt;
  sim::SanitizerEngine engine(sopt);
  sim::DeviceMemory mem;
  cfg.args = {mem.alloc(ScalarType::kFloat, 64),
              sim::LaunchConfig::scalar_int(64)};
  sim::Interpreter::Options iopt;
  iopt.sanitizer = &engine;
  iopt.limits.max_steps_per_block = 10000;
  const sim::DeviceSpec spec = sim::DeviceSpec::gtx680();
  sim::Interpreter interp(spec, mem, iopt);
  EXPECT_NO_THROW((void)interp.run(kernel, cfg)) << src;
  bool tripped = false;
  for (const auto& r : engine.reports())
    tripped = tripped || r.kind == sim::HazardKind::kWatchdogTrip;
  EXPECT_EQ(engine.reports().size(), tripped ? 1u : 0u) << src;

  // Unsanitized: the same draw either completes or throws WatchdogError.
  sim::DeviceMemory mem2;
  cfg.args = {mem2.alloc(ScalarType::kFloat, 64),
              sim::LaunchConfig::scalar_int(64)};
  sim::Interpreter::Options popt;
  popt.limits.max_steps_per_block = 10000;
  sim::Interpreter plain(spec, mem2, popt);
  try {
    (void)plain.run(kernel, cfg);
    EXPECT_FALSE(tripped) << "sanitized run tripped but plain run finished:\n"
                          << src;
  } catch (const sim::WatchdogError& e) {
    EXPECT_TRUE(tripped) << "plain run tripped but sanitized run finished:\n"
                         << src;
    EXPECT_GT(e.steps(), 10000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatchdogFuzz, ::testing::Range(0, 40));

}  // namespace
}  // namespace cudanp
