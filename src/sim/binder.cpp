#include "sim/binder.hpp"

#include <mutex>
#include <unordered_map>

namespace cudanp::sim {

using namespace cudanp::ir;

namespace {

[[nodiscard]] std::int32_t geometry_code(const std::string& name) {
  if (name == "threadIdx.x") return kGeomThreadIdxX;
  if (name == "threadIdx.y") return kGeomThreadIdxY;
  if (name == "threadIdx.z") return kGeomThreadIdxZ;
  if (name == "blockIdx.x") return kGeomBlockIdxX;
  if (name == "blockIdx.y") return kGeomBlockIdxY;
  if (name == "blockIdx.z") return kGeomBlockIdxZ;
  if (name == "blockDim.x") return kGeomBlockDimX;
  if (name == "blockDim.y") return kGeomBlockDimY;
  if (name == "blockDim.z") return kGeomBlockDimZ;
  if (name == "gridDim.x") return kGeomGridDimX;
  if (name == "gridDim.y") return kGeomGridDimY;
  if (name == "gridDim.z") return kGeomGridDimZ;
  return -1;
}

}  // namespace

Builtin resolve_builtin(const std::string& f) {
  if (f == "__syncthreads") return Builtin::kSyncthreads;
  if (f == "__shfl") return Builtin::kShfl;
  if (f == "__shfl_up") return Builtin::kShflUp;
  if (f == "__shfl_down") return Builtin::kShflDown;
  if (f == "__shfl_xor") return Builtin::kShflXor;
  if (f == "sqrtf" || f == "sqrt") return Builtin::kSqrt;
  if (f == "fabsf" || f == "fabs") return Builtin::kFabs;
  if (f == "expf" || f == "exp" || f == "__expf") return Builtin::kExp;
  if (f == "logf" || f == "log" || f == "__logf") return Builtin::kLog;
  if (f == "sinf" || f == "__sinf") return Builtin::kSin;
  if (f == "cosf" || f == "__cosf") return Builtin::kCos;
  if (f == "floorf") return Builtin::kFloor;
  if (f == "rsqrtf") return Builtin::kRsqrt;
  if (f == "abs") return Builtin::kAbs;
  if (f == "min") return Builtin::kMin;
  if (f == "max") return Builtin::kMax;
  if (f == "fminf") return Builtin::kFminf;
  if (f == "fmaxf") return Builtin::kFmaxf;
  if (f == "powf") return Builtin::kPowf;
  return Builtin::kNotBuiltin;
}

namespace {

/// Builds the frame layout and annotates the AST in one pre-order walk
/// (a for-loop's init, condition and increment before its body). A
/// declaration reuses the slot its name currently binds to, unless that
/// slot is a kernel parameter or was declared with a different type; then
/// it gets a fresh slot. So every slot has exactly one static type, and
/// re-declarations of one variable (loop bodies) share storage. A
/// reference binds to its name's most recent declaration; a reference
/// that precedes every declaration of its name binds to the first one's
/// slot, where the runtime liveness bit raises "use of undeclared
/// variable".
class Binder {
 public:
  explicit Binder(const Kernel& kernel) {
    out_ = std::make_shared<BoundKernel>();
    out_->kernel = &kernel;
    for (std::size_t i = 0; i < kernel.params.size(); ++i) {
      SlotDecl sd;
      sd.name = kernel.params[i].name;
      sd.type = kernel.params[i].type;
      sd.is_param = true;
      current_[sd.name] = static_cast<std::int32_t>(out_->slots.size());
      out_->slots.push_back(std::move(sd));
    }
    bind_stmt(*kernel.body);
    for (const VarRef* v : forward_) {
      auto it = first_decl_.find(v->name);
      v->sim_slot = it == first_decl_.end() ? kSlotUndeclared : it->second;
    }
  }

  [[nodiscard]] std::shared_ptr<const BoundKernel> take() {
    return std::move(out_);
  }

 private:
  void declare(const DeclStmt& d) {
    auto cur = current_.find(d.name);
    const SlotDecl* prev =
        cur == current_.end()
            ? nullptr
            : &out_->slots[static_cast<std::size_t>(cur->second)];
    if (prev && !prev->is_param && prev->type == d.type) {
      d.sim_slot = cur->second;
    } else {
      d.sim_slot = static_cast<std::int32_t>(out_->slots.size());
      SlotDecl sd;
      sd.name = d.name;
      sd.type = d.type;
      out_->slots.push_back(std::move(sd));
      current_[d.name] = d.sim_slot;
      first_decl_.emplace(d.name, d.sim_slot);
    }
    if (d.type.space == AddrSpace::kShared)
      out_->shared_words_bound +=
          static_cast<std::uint64_t>(d.type.element_count());
  }

  void bind_stmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::kBlock:
        for (const auto& c : static_cast<const Block&>(s).stmts) bind_stmt(*c);
        return;
      case StmtKind::kDecl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        declare(d);
        if (d.init) bind_expr(*d.init);
        for (const auto& e : d.init_list) bind_expr(*e);
        return;
      }
      case StmtKind::kAssign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        bind_expr(*a.lhs);
        bind_expr(*a.rhs);
        return;
      }
      case StmtKind::kIf: {
        const auto& i = static_cast<const IfStmt&>(s);
        bind_expr(*i.cond);
        bind_stmt(*i.then_body);
        if (i.else_body) bind_stmt(*i.else_body);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const ForStmt&>(s);
        if (f.init) bind_stmt(*f.init);
        if (f.cond) bind_expr(*f.cond);
        if (f.inc) bind_stmt(*f.inc);
        bind_stmt(*f.body);
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = static_cast<const WhileStmt&>(s);
        bind_expr(*w.cond);
        bind_stmt(*w.body);
        return;
      }
      case StmtKind::kExpr:
        bind_expr(*static_cast<const ExprStmt&>(s).expr);
        return;
      case StmtKind::kReturn:
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        return;
    }
  }

  void bind_expr(const Expr& e) {
    for_each_expr(e, [&](const Expr& x) {
      switch (x.kind()) {
        case ExprKind::kVarRef: {
          const auto& v = static_cast<const VarRef&>(x);
          // Geometry names take precedence over declared variables, like
          // the old is_builtin_geometry check before the map lookup.
          std::int32_t g = geometry_code(v.name);
          if (g >= 0) {
            v.sim_slot = kSlotGeomBase - g;
            return;
          }
          auto it = current_.find(v.name);
          if (it != current_.end())
            v.sim_slot = it->second;
          else
            forward_.push_back(&v);
          return;
        }
        case ExprKind::kCall: {
          const auto& c = static_cast<const CallExpr&>(x);
          c.sim_builtin = static_cast<std::int16_t>(resolve_builtin(c.callee));
          return;
        }
        default:
          return;
      }
    });
  }

  std::shared_ptr<BoundKernel> out_;
  /// Name -> the slot its most recent declaration (or parameter) binds.
  std::unordered_map<std::string, std::int32_t> current_;
  /// Name -> the slot of its first declaration (forward references).
  std::unordered_map<std::string, std::int32_t> first_decl_;
  /// References seen before any declaration of their name.
  std::vector<const VarRef*> forward_;
};

std::mutex g_bind_mutex;

}  // namespace

std::shared_ptr<const BoundKernel> bind_kernel(const Kernel& kernel) {
  std::lock_guard<std::mutex> lock(g_bind_mutex);
  if (kernel.sim_binding)
    return std::static_pointer_cast<const BoundKernel>(kernel.sim_binding);
  Binder binder(kernel);
  auto bound = binder.take();
  kernel.sim_binding = bound;
  return bound;
}

}  // namespace cudanp::sim
