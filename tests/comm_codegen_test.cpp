// Property tests for the communication code generators: the emitted IR is
// executed on the simulator and checked against direct computation, for
// every operator, group size and communication fabric (shfl vs shared
// memory).
#include <gtest/gtest.h>

#include <cmath>

#include "ir/printer.hpp"
#include "sim/interpreter.hpp"
#include "transform/comm_codegen.hpp"

namespace cudanp::transform {
namespace {

using namespace cudanp::ir;
using namespace cudanp::sim;

struct Mode {
  NpType np_type;
  bool use_shfl;
};

struct Case {
  Mode mode;
  int slave_size;
  int master_count;
  ReduceOp op;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string s = c.mode.np_type == NpType::kIntraWarp ? "intra" : "inter";
  s += c.mode.use_shfl ? "Shfl" : "Smem";
  s += "S" + std::to_string(c.slave_size);
  s += "M" + std::to_string(c.master_count);
  switch (c.op) {
    case ReduceOp::kAdd: s += "Add"; break;
    case ReduceOp::kMul: s += "Mul"; break;
    case ReduceOp::kMin: s += "Min"; break;
    case ReduceOp::kMax: s += "Max"; break;
  }
  return s;
}

/// Builds a kernel whose body is: prologue; float v = f(master, slave);
/// <generated comm code>; out[tid] = v.
class CommHarness {
 public:
  CommHarness(const Case& c) : c_(c) {
    cfg_.np_type = c.mode.np_type;
    cfg_.use_shfl = c.mode.use_shfl;
    cfg_.slave_size = c.slave_size;
    cfg_.master_count = c.master_count;
    cfg_.sm_version = 30;
  }

  /// `value_expr` initializes per-thread v; `emit` appends the comm code.
  std::vector<float> run(ExprPtr value_expr,
                         const std::function<void(CommCodegen&, Block&)>& emit) {
    auto kernel = std::make_unique<Kernel>();
    kernel->name = "t";
    kernel->params.push_back({Type::pointer_to(ScalarType::kFloat), "out"});

    CommCodegen comm(cfg_);
    auto body = make_block();
    bool inter = cfg_.np_type == NpType::kInterWarp;
    body->push(std::make_unique<DeclStmt>(
        Type::scalar_of(ScalarType::kInt), "master_id",
        make_var(inter ? "threadIdx.x" : "threadIdx.y")));
    body->push(std::make_unique<DeclStmt>(
        Type::scalar_of(ScalarType::kInt), "slave_id",
        make_var(inter ? "threadIdx.y" : "threadIdx.x")));
    body->push(std::make_unique<DeclStmt>(Type::scalar_of(ScalarType::kFloat),
                                          "v", std::move(value_expr)));
    auto tail = make_block();
    emit(comm, *tail);
    // tid = master * S + slave for output indexing.
    tail->push(make_assign(
        make_index1("out",
                    make_bin(BinOp::kAdd,
                             make_bin(BinOp::kMul, make_var("master_id"),
                                      make_int(cfg_.slave_size)),
                             make_var("slave_id"))),
        make_var("v")));
    auto full = make_block();
    for (auto& d : comm.take_shared_decls()) full->push(std::move(d));
    for (auto& s : body->stmts) full->push(std::move(s));
    for (auto& s : tail->stmts) full->push(std::move(s));
    kernel->body = std::move(full);

    DeviceMemory mem;
    std::size_t n = static_cast<std::size_t>(cfg_.master_count) *
                    static_cast<std::size_t>(cfg_.slave_size);
    auto out = mem.alloc(ScalarType::kFloat, n);
    LaunchConfig launch;
    launch.grid = {1, 1, 1};
    launch.block = inter ? Dim3{cfg_.master_count, cfg_.slave_size, 1}
                         : Dim3{cfg_.slave_size, cfg_.master_count, 1};
    launch.args = {out};
    const DeviceSpec spec = DeviceSpec::gtx680();  // Interpreter keeps a ref
    Interpreter interp(spec, mem);
    (void)interp.run(*kernel, launch);
    auto span = mem.buffer(out).f32();
    return {span.begin(), span.end()};
  }

  NpConfig cfg_;
  Case c_;
};

/// v = 1 + 0.01*master + 0.003*slave (distinct per thread; near 1 so
/// 32-way products stay in float range).
ExprPtr seed_value() {
  return make_bin(
      BinOp::kAdd,
      make_bin(BinOp::kAdd,
               make_bin(BinOp::kMul, make_var("master_id"),
                        make_float(0.01)),
               make_bin(BinOp::kMul, make_var("slave_id"),
                        make_float(0.003))),
      make_float(1.0));
}

double seed(int master, int slave) {
  return master * 0.01 + slave * 0.003 + 1.0;
}

double apply(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kAdd: return a + b;
    case ReduceOp::kMul: return a * b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
  }
  return 0;
}

/// The exclusive scan's first prefix: the operator's identity, with the
/// extreme finite floats CommCodegen::identity_expr uses for min/max.
double scan_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kAdd: return 0.0;
    case ReduceOp::kMul: return 1.0;
    case ReduceOp::kMin: return 3.4e38;
    case ReduceOp::kMax: return -3.4e38;
  }
  return 0;
}

class CommCodegenTest : public ::testing::TestWithParam<Case> {};

TEST_P(CommCodegenTest, BroadcastDeliversMasterValue) {
  CommHarness h(GetParam());
  auto out = h.run(seed_value(), [&](CommCodegen& comm, Block& b) {
    comm.emit_broadcast(b, "v", ScalarType::kFloat);
  });
  const auto& cfg = h.cfg_;
  for (int m = 0; m < cfg.master_count; ++m)
    for (int s = 0; s < cfg.slave_size; ++s)
      EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(m * cfg.slave_size + s)],
                      static_cast<float>(seed(m, 0)))
          << "m=" << m << " s=" << s;
}

TEST_P(CommCodegenTest, ReductionCombinesWholeGroup) {
  const Case& c = GetParam();
  CommHarness h(c);
  auto out = h.run(seed_value(), [&](CommCodegen& comm, Block& b) {
    comm.emit_reduction(b, "v", ScalarType::kFloat, c.op);
  });
  const auto& cfg = h.cfg_;
  for (int m = 0; m < cfg.master_count; ++m) {
    double want = seed(m, 0);
    for (int s = 1; s < cfg.slave_size; ++s)
      want = apply(c.op, want, seed(m, s));
    for (int s = 0; s < cfg.slave_size; ++s)
      EXPECT_NEAR(out[static_cast<std::size_t>(m * cfg.slave_size + s)], want,
                  std::fabs(want) * 1e-3 + 1e-3)
          << "m=" << m << " s=" << s;
  }
}

TEST_P(CommCodegenTest, ExclusiveScanPrefixes) {
  const Case& c = GetParam();
  CommHarness h(c);
  auto out = h.run(seed_value(), [&](CommCodegen& comm, Block& b) {
    b.push(std::make_unique<DeclStmt>(
        Type::scalar_of(ScalarType::kFloat), "pfx",
        CommCodegen::identity_expr(c.op, ScalarType::kFloat)));
    comm.emit_exclusive_scan(b, "v", "pfx", ScalarType::kFloat, c.op);
    b.push(make_assign(make_var("v"), make_var("pfx")));
  });
  const auto& cfg = h.cfg_;
  for (int m = 0; m < cfg.master_count; ++m) {
    double want = scan_identity(c.op);
    for (int s = 0; s < cfg.slave_size; ++s) {
      EXPECT_NEAR(out[static_cast<std::size_t>(m * cfg.slave_size + s)], want,
                  std::fabs(want) * 1e-4 + 1e-3)
          << "m=" << m << " s=" << s;
      want = apply(c.op, want, seed(m, s));
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMul, ReduceOp::kMin,
                      ReduceOp::kMax}) {
    // Intra-warp with shfl: power-of-two group sizes within a warp.
    for (int s : {2, 4, 8, 16, 32})
      cases.push_back({{NpType::kIntraWarp, true}, s, 8, op});
    // Intra-warp forced to shared memory (the Fig. 16 comparison).
    for (int s : {2, 8})
      cases.push_back({{NpType::kIntraWarp, false}, s, 8, op});
    // Inter-warp (shared memory), including non-power-of-two sizes
    // (Fig. 12's no-padding slave counts 3/5/15).
    for (int s : {2, 3, 5, 8, 15})
      cases.push_back({{NpType::kInterWarp, false}, s, 16, op});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, CommCodegenTest,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST(CommCodegen, SharedDeclsReportBytes) {
  NpConfig cfg;
  cfg.np_type = NpType::kInterWarp;
  cfg.slave_size = 8;
  cfg.master_count = 32;
  CommCodegen comm(cfg);
  Block b;
  comm.emit_broadcast(b, "v", ScalarType::kFloat);
  comm.emit_reduction(b, "v", ScalarType::kFloat, ReduceOp::kAdd);
  // bcast buffer: 32 floats; reduction buffer: 8x32 floats.
  EXPECT_EQ(comm.shared_bytes_added(), 32 * 4 + 8 * 32 * 4);
  EXPECT_EQ(comm.take_shared_decls().size(), 2u);
}

TEST(CommCodegen, ShflPathAddsNoSharedMemory) {
  NpConfig cfg;
  cfg.np_type = NpType::kIntraWarp;
  cfg.use_shfl = true;
  cfg.slave_size = 8;
  cfg.master_count = 4;
  CommCodegen comm(cfg);
  Block b;
  comm.emit_broadcast(b, "v", ScalarType::kFloat);
  comm.emit_reduction(b, "v", ScalarType::kFloat, ReduceOp::kAdd);
  EXPECT_EQ(comm.shared_bytes_added(), 0);
}

TEST(CommCodegen, IdentityExprValues) {
  using CC = CommCodegen;
  EXPECT_EQ(print_expr(*CC::identity_expr(ReduceOp::kAdd, ScalarType::kInt)),
            "0");
  EXPECT_EQ(print_expr(*CC::identity_expr(ReduceOp::kMul, ScalarType::kInt)),
            "1");
  EXPECT_EQ(print_expr(*CC::identity_expr(ReduceOp::kMin, ScalarType::kInt)),
            "2147483647");
}

}  // namespace
}  // namespace cudanp::transform
