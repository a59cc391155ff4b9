// Scalar operator semantics shared by every evaluator of the kernel IR.
//
// The bytecode VM (through exec::BlockCore) and the symbolic executor's
// constant folding and SymEvaluator (sim/symexec.cpp) all compute
// operators through this header, so a fully concrete symbolic run is
// bit-identical to a simulated one by construction. Floats round
// through f32 after every operation; ints are exact int64.
//
// Faults are reported through a caller-supplied callable `fail(text)`
// that must not return (each engine throws its own error type: SimError
// with the source location, or SymFault); the texts are the k* constants
// below.
//
// This header is an implementation detail of sim/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ir/expr.hpp"
#include "ir/type.hpp"
#include "sim/binder.hpp"
#include "sim/value.hpp"

namespace cudanp::sim::ops {

inline constexpr char kIntDivByZero[] = "integer division by zero";
inline constexpr char kModByZero[] = "modulo by zero";
inline constexpr char kModNeedsInts[] = "operator % requires integers";
inline constexpr char kShflBadWidth[] =
    "__shfl width must be a power of two in [1,32]";

/// One binary operator with the op fixed at compile time, so a lane loop
/// that calls it inlines a single case instead of a 19-way switch.
template <ir::BinOp kOp, typename Fail>
inline Value apply_binop(Value a, Value b, Fail&& fail) {
  using ir::BinOp;
  if constexpr (kOp == BinOp::kLAnd)
    return Value::of_int(a.truthy() && b.truthy());
  else if constexpr (kOp == BinOp::kLOr)
    return Value::of_int(a.truthy() || b.truthy());
  else if constexpr (kOp == BinOp::kBitAnd)
    return Value::of_int(a.as_i() & b.as_i());
  else if constexpr (kOp == BinOp::kBitOr)
    return Value::of_int(a.as_i() | b.as_i());
  else if constexpr (kOp == BinOp::kBitXor)
    return Value::of_int(a.as_i() ^ b.as_i());
  else if constexpr (kOp == BinOp::kShl)
    return Value::of_int(a.as_i() << b.as_i());
  else if constexpr (kOp == BinOp::kShr)
    return Value::of_int(a.as_i() >> b.as_i());
  else {
    const bool fl = a.is_float() || b.is_float();
    if constexpr (kOp == BinOp::kAdd)
      return fl ? Value::of_float(a.as_f() + b.as_f()).to_f32()
                : Value::of_int(a.i + b.i);
    else if constexpr (kOp == BinOp::kSub)
      return fl ? Value::of_float(a.as_f() - b.as_f()).to_f32()
                : Value::of_int(a.i - b.i);
    else if constexpr (kOp == BinOp::kMul)
      return fl ? Value::of_float(a.as_f() * b.as_f()).to_f32()
                : Value::of_int(a.i * b.i);
    else if constexpr (kOp == BinOp::kDiv) {
      if (fl) return Value::of_float(a.as_f() / b.as_f()).to_f32();
      if (b.i == 0) fail(kIntDivByZero);
      return Value::of_int(a.i / b.i);
    } else if constexpr (kOp == BinOp::kMod) {
      if (fl) fail(kModNeedsInts);
      if (b.i == 0) fail(kModByZero);
      return Value::of_int(a.i % b.i);
    } else if constexpr (kOp == BinOp::kLt) {
      return Value::of_int(fl ? a.as_f() < b.as_f() : a.i < b.i);
    } else if constexpr (kOp == BinOp::kLe) {
      return Value::of_int(fl ? a.as_f() <= b.as_f() : a.i <= b.i);
    } else if constexpr (kOp == BinOp::kGt) {
      return Value::of_int(fl ? a.as_f() > b.as_f() : a.i > b.i);
    } else if constexpr (kOp == BinOp::kGe) {
      return Value::of_int(fl ? a.as_f() >= b.as_f() : a.i >= b.i);
    } else if constexpr (kOp == BinOp::kEq) {
      return Value::of_int(fl ? a.as_f() == b.as_f() : a.i == b.i);
    } else {
      static_assert(kOp == BinOp::kNe, "unhandled binop");
      return Value::of_int(fl ? a.as_f() != b.as_f() : a.i != b.i);
    }
  }
}

/// Runtime-op entry: switches once on `op` and calls
/// `fn(std::integral_constant<ir::BinOp, op>{})`, so callers can run a
/// whole lane loop with the op as a compile-time constant.
template <typename Fn>
inline decltype(auto) with_binop(ir::BinOp op, Fn&& fn) {
  using ir::BinOp;
  using std::integral_constant;
  switch (op) {
    case BinOp::kAdd: return fn(integral_constant<BinOp, BinOp::kAdd>{});
    case BinOp::kSub: return fn(integral_constant<BinOp, BinOp::kSub>{});
    case BinOp::kMul: return fn(integral_constant<BinOp, BinOp::kMul>{});
    case BinOp::kDiv: return fn(integral_constant<BinOp, BinOp::kDiv>{});
    case BinOp::kMod: return fn(integral_constant<BinOp, BinOp::kMod>{});
    case BinOp::kLt: return fn(integral_constant<BinOp, BinOp::kLt>{});
    case BinOp::kLe: return fn(integral_constant<BinOp, BinOp::kLe>{});
    case BinOp::kGt: return fn(integral_constant<BinOp, BinOp::kGt>{});
    case BinOp::kGe: return fn(integral_constant<BinOp, BinOp::kGe>{});
    case BinOp::kEq: return fn(integral_constant<BinOp, BinOp::kEq>{});
    case BinOp::kNe: return fn(integral_constant<BinOp, BinOp::kNe>{});
    case BinOp::kLAnd: return fn(integral_constant<BinOp, BinOp::kLAnd>{});
    case BinOp::kLOr: return fn(integral_constant<BinOp, BinOp::kLOr>{});
    case BinOp::kBitAnd: return fn(integral_constant<BinOp, BinOp::kBitAnd>{});
    case BinOp::kBitOr: return fn(integral_constant<BinOp, BinOp::kBitOr>{});
    case BinOp::kBitXor: return fn(integral_constant<BinOp, BinOp::kBitXor>{});
    case BinOp::kShl: return fn(integral_constant<BinOp, BinOp::kShl>{});
    case BinOp::kShr: return fn(integral_constant<BinOp, BinOp::kShr>{});
  }
  throw std::logic_error("unreachable binop");
}

/// apply_binop for an op known only at run time.
template <typename Fail>
inline Value apply_binop(ir::BinOp op, Value a, Value b, Fail&& fail) {
  return with_binop(op, [&](auto k) {
    return apply_binop<decltype(k)::value>(a, b, fail);
  });
}

[[nodiscard]] inline Value apply_unop(ir::UnOp op, Value x) {
  if (op == ir::UnOp::kNeg)
    return x.is_float() ? Value::of_float(-x.f) : Value::of_int(-x.i);
  return Value::of_int(x.truthy() ? 0 : 1);
}

/// Conversion on a store, declaration or cast to `to`.
[[nodiscard]] inline Value coerce(Value v, ir::ScalarType to) {
  switch (to) {
    case ir::ScalarType::kFloat: return v.to_f32();
    case ir::ScalarType::kInt:
    case ir::ScalarType::kBool: return Value::of_int(v.as_i());
    case ir::ScalarType::kVoid: return v;
  }
  return v;
}

// ---------------- math builtins ----------------

/// Issue cost class of a math builtin (the cost model's weight).
enum class MathWeight : std::uint8_t {
  kAlu,   ///< weights.alu
  kSfu,   ///< weights.fdiv_sqrt_transcendental
  kSfu2,  ///< twice weights.fdiv_sqrt_transcendental (powf)
};

/// One math builtin. The result is float, rounded through f32, unless the
/// builtin has an `int_body` and every argument is an int.
struct MathOp {
  const char* name;  ///< canonical spelling, for diagnostics
  int arity;
  MathWeight weight;
  double (*body)(double, double);
  std::int64_t (*int_body)(std::int64_t, std::int64_t);
};

// Bodies shared by two builtins each (fabsf/abs, min/fminf, max/fmaxf).
inline double fabs_body(double x, double) { return std::fabs(x); }
inline double fmin_body(double x, double y) { return std::min(x, y); }
inline double fmax_body(double x, double y) { return std::max(x, y); }

// Indexed by Builtin, from Builtin::kSqrt on; unary bodies ignore y.
inline constexpr MathOp kMathOps[] = {
    {"sqrtf", 1, MathWeight::kSfu,
     [](double x, double) { return std::sqrt(x); }, nullptr},
    {"fabsf", 1, MathWeight::kAlu, fabs_body, nullptr},
    {"expf", 1, MathWeight::kSfu,
     [](double x, double) { return std::exp(x); }, nullptr},
    {"logf", 1, MathWeight::kSfu,
     [](double x, double) { return std::log(x); }, nullptr},
    {"sinf", 1, MathWeight::kSfu,
     [](double x, double) { return std::sin(x); }, nullptr},
    {"cosf", 1, MathWeight::kSfu,
     [](double x, double) { return std::cos(x); }, nullptr},
    {"floorf", 1, MathWeight::kAlu,
     [](double x, double) { return std::floor(x); }, nullptr},
    {"rsqrtf", 1, MathWeight::kSfu,
     [](double x, double) { return 1.0 / std::sqrt(x); }, nullptr},
    {"abs", 1, MathWeight::kAlu, fabs_body,
     [](std::int64_t x, std::int64_t) { return std::abs(x); }},
    {"min", 2, MathWeight::kAlu, fmin_body,
     [](std::int64_t x, std::int64_t y) { return std::min(x, y); }},
    {"max", 2, MathWeight::kAlu, fmax_body,
     [](std::int64_t x, std::int64_t y) { return std::max(x, y); }},
    {"fminf", 2, MathWeight::kAlu, fmin_body, nullptr},
    {"fmaxf", 2, MathWeight::kAlu, fmax_body, nullptr},
    {"powf", 2, MathWeight::kSfu2,
     [](double x, double y) { return std::pow(x, y); }, nullptr},
};

static_assert(std::size(kMathOps) == static_cast<std::size_t>(
                                         static_cast<int>(Builtin::kPowf) -
                                         static_cast<int>(Builtin::kSqrt) + 1));

/// The math builtin `b`, or null for barriers, shuffles and unknowns.
[[nodiscard]] inline const MathOp* math_op(Builtin b) {
  const int i = static_cast<int>(b) - static_cast<int>(Builtin::kSqrt);
  if (i < 0 || i >= static_cast<int>(std::size(kMathOps))) return nullptr;
  return &kMathOps[i];
}

/// "<callee> expects N argument(s)": the arity fault text (callers append
/// the location).
[[nodiscard]] inline std::string arity_error(const std::string& callee,
                                             const MathOp& m) {
  return callee +
         (m.arity == 1 ? " expects 1 argument" : " expects 2 arguments");
}

/// The fault text for a non-array `__shared__` declaration, which no
/// evaluator supports (callers append the location).
[[nodiscard]] inline std::string shared_scalar_error(const std::string& name) {
  return "__shared__ scalar '" + name +
         "' is not supported; declare it as a one-element array";
}

/// Applies a math builtin; unary builtins take the default `y`.
[[nodiscard]] inline Value apply_math(const MathOp& m, Value x,
                                      Value y = Value{}) {
  if (m.int_body && !x.is_float() && !y.is_float())
    return Value::of_int(m.int_body(x.i, y.i));
  return Value::of_float(m.body(x.as_f(), y.as_f())).to_f32();
}

// ---------------- warp shuffles ----------------

[[nodiscard]] inline bool shfl_width_ok(std::int64_t width, int warp_size) {
  return width > 0 && width <= warp_size && (width & (width - 1)) == 0;
}

/// The warp lane a __shfl-family builtin reads for `lane` (its own index
/// within the warp), given the selector / delta / mask `sel` and a valid
/// `width`. The result may fall outside [0, warp_size) for negative or
/// escaping selectors; callers recover with the reading lane's own value.
[[nodiscard]] inline int shfl_source_lane(Builtin b, int lane,
                                          std::int64_t sel,
                                          std::int64_t width) {
  const int w = static_cast<int>(width);
  const int group_base = lane / w * w;
  switch (b) {
    case Builtin::kShfl: return group_base + static_cast<int>(sel % width);
    case Builtin::kShflUp: {
      int cand = lane - static_cast<int>(sel);
      return cand < group_base ? lane : cand;
    }
    case Builtin::kShflDown: {
      int cand = lane + static_cast<int>(sel);
      return cand >= group_base + w ? lane : cand;
    }
    default: {  // __shfl_xor
      int cand = group_base + ((lane - group_base) ^ static_cast<int>(sel));
      return cand < group_base + w ? cand : lane;
    }
  }
}

}  // namespace cudanp::sim::ops
