// Seeded generator of kernels with per-lane divergent control flow,
// shared by the pinned-execution suite (engine_equivalence_test) and the
// concrete symbolic-vs-VM check (symexec_concrete_test).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "support/rng.hpp"

namespace cudanp::divergent_fuzz {

/// Seeds 1..kSeeds are the corpus both suites run.
constexpr std::uint64_t kSeeds = 25;

/// Generates a seeded kernel `fz(float* out, int n)` whose control flow
/// diverges per-lane: nested tid-keyed ifs, loops with lane-dependent
/// trip counts, a shared-memory stage with a barrier, and lane-varying
/// arithmetic. Constants are chosen so div/mod never see zero.
inline std::string fuzz_source(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::ostringstream os;
  os << "__global__ void fz(float* out, int n) {\n"
     << "  __shared__ float buf[32];\n"
     << "  int tid = threadIdx.x + blockIdx.x * blockDim.x;\n"
     << "  int lane = threadIdx.x;\n"
     << "  float acc = " << pick(1, 4) << ".0f;\n";
  int depth = pick(1, 3);
  for (int d = 0; d < depth; ++d) {
    int mod = pick(2, 7);
    int cut = pick(0, mod - 1);
    os << "  if (lane % " << mod << " > " << cut << ") {\n"
       << "    for (int i = 0; i < " << pick(1, 4) << " + lane % "
       << pick(2, 5) << "; i++) {\n"
       << "      acc += " << pick(1, 3) << ".0f * i;\n"
       << "      if (acc > " << pick(8, 64) << ".0f) acc = acc * 0.5f;\n"
       << "    }\n"
       << "  } else {\n"
       << "    acc = acc - " << pick(1, 3) << ".0f;\n"
       << "  }\n";
  }
  os << "  buf[lane] = acc;\n"
     << "  __syncthreads();\n"
     << "  acc += buf[(lane * " << pick(3, 9) << ") % 32];\n"
     << "  int k = " << pick(1, 6) << ";\n"
     << "  while (k > 0) {\n"
     << "    acc = acc + 0.25f;\n"
     << "    k = k - 1;\n"
     << "  }\n"
     << "  out[tid] = acc;\n"
     << "}\n";
  return os.str();
}

}  // namespace cudanp::divergent_fuzz
