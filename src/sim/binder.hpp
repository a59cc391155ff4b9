// Slot binder: the interpreter's once-per-kernel name-resolution prepass.
//
// The block-lockstep interpreter used to resolve every VarRef through an
// unordered_map<string, Slot> and every geometry name / builtin callee by
// string comparison, on every executed statement of every lane of every
// block. This binder walks the kernel AST once, assigns every variable
// an integer slot in a flat frame, classifies geometry names and builtin
// callees, and stamps the results onto the AST's mutable annotation
// fields (VarRef::sim_slot, DeclStmt::sim_slot, CallExpr::sim_builtin).
// The per-thread eval loop then never touches a string or a hash map.
//
// Each slot has one static type and is never shared between a kernel
// parameter and a declaration: a declaration that shadows a parameter,
// or re-declares a name with a different type, gets a fresh slot, and a
// reference binds to its name's most recent declaration in pre-order.
// Re-declarations of one variable with one type (loop bodies) share a
// slot.
//
// Semantics are preserved exactly, including error behaviour: names that
// never resolve are bound to a sentinel and still throw the original
// "use of undeclared variable" SimError lazily, only if the reference is
// actually executed; unknown callees likewise throw only when called.
//
// The binding is cached on the ir::Kernel itself (Kernel::sim_binding),
// so repeated launches of one kernel object — autotuner sweeps,
// NpCompiler::validate, the bench figures — bind once. The cache is
// lifetime-tied to the kernel and is not copied by Kernel::clone().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ir/kernel.hpp"

namespace cudanp::sim {

/// Builtin callees, resolved once so eval dispatches on an integer.
/// kNotBuiltin calls throw "unknown function" lazily at execution time.
enum class Builtin : std::int16_t {
  kNotBuiltin = -1,
  kSyncthreads,
  kShfl,
  kShflUp,
  kShflDown,
  kShflXor,
  kSqrt,
  kFabs,
  kExp,
  kLog,
  kSin,
  kCos,
  kFloor,
  kRsqrt,
  kAbs,
  kMin,
  kMax,
  kFminf,
  kFmaxf,
  kPowf,
};

/// Geometry value codes, in the order the lane caches are laid out.
enum Geom : int {
  kGeomThreadIdxX = 0,
  kGeomThreadIdxY,
  kGeomThreadIdxZ,
  kGeomBlockIdxX,
  kGeomBlockIdxY,
  kGeomBlockIdxZ,
  kGeomBlockDimX,
  kGeomBlockDimY,
  kGeomBlockDimZ,
  kGeomGridDimX,
  kGeomGridDimY,
  kGeomGridDimZ,
  kGeomCount,
};

// VarRef::sim_slot encoding: values >= 0 index the block frame; negative
// values are the codes below.
/// Name never declared anywhere in the kernel: throws "use of undeclared
/// variable" if the reference executes.
constexpr std::int32_t kSlotUndeclared = -1;
/// Geometry builtins: slot == kSlotGeomBase - geom_code.
constexpr std::int32_t kSlotGeomBase = -2;
/// Default annotation value of a node the binder has never visited (the
/// kernel was mutated after binding — an internal error if evaluated).
constexpr std::int32_t kSlotUnbound = std::numeric_limits<std::int32_t>::min();

[[nodiscard]] constexpr bool slot_is_geometry(std::int32_t slot) {
  return slot <= kSlotGeomBase && slot != kSlotUnbound;
}
[[nodiscard]] constexpr int slot_geometry_code(std::int32_t slot) {
  return static_cast<int>(kSlotGeomBase - slot);
}

/// Static description of one frame slot.
struct SlotDecl {
  std::string name;  // for error messages and hazard reports only
  /// The parameter's type, or the one type every declaration bound to
  /// this slot shares.
  ir::Type type;
  bool is_param = false;  // params occupy slots 0..params.size()-1
};

/// The result of binding one kernel: the frame layout plus static size
/// hints. The AST annotations carry the per-node slot ids.
struct BoundKernel {
  const ir::Kernel* kernel = nullptr;
  std::vector<SlotDecl> slots;  // params first, then declared names
  /// Static upper bound on shared-memory words the kernel can declare;
  /// used to reserve the sanitizer's shared shadow map up front.
  std::uint64_t shared_words_bound = 0;

  [[nodiscard]] std::size_t num_slots() const { return slots.size(); }
};

/// CallExpr::sim_builtin value of a node the binder never visited
/// (matches the field's default in ir/expr.hpp).
constexpr std::int16_t kBuiltinUnset = -32768;

/// String -> Builtin resolution, the slow path the binder runs once per
/// call site (and eval falls back to for unbound nodes).
[[nodiscard]] Builtin resolve_builtin(const std::string& callee);

/// The builtin a call dispatches on: the binder's annotation, or the
/// string resolution for a node created after binding (mutated AST).
[[nodiscard]] inline Builtin builtin_of(const ir::CallExpr& c) {
  return c.sim_builtin == kBuiltinUnset ? resolve_builtin(c.callee)
                                        : static_cast<Builtin>(c.sim_builtin);
}

/// Binds `kernel` (or returns its cached binding). Thread-safe: concurrent
/// callers serialize on an internal mutex and the annotations are fully
/// written before the shared_ptr is published.
[[nodiscard]] std::shared_ptr<const BoundKernel> bind_kernel(
    const ir::Kernel& kernel);

}  // namespace cudanp::sim
