// Seeded random kernel generator shared by the certifier fuzz tests
// (cert_fuzz_test) and the concrete symbolic-vs-VM check
// (symexec_concrete_test).
#pragma once

#include <cstdint>
#include <random>
#include <string>

namespace cudanp::cert_fuzz {

// Every generated program is a per-thread
// reduction over h iterations — the shape `#pragma np parallel for`
// accepts — with a randomly grown arithmetic term over the float
// inputs. Int data (loop bounds, indices) stays affine in i/tx so the
// kernel is valid for the synthetic 8x8 workload geometry.

struct Rng {
  std::mt19937_64 gen;
  explicit Rng(std::uint64_t seed) : gen(seed) {}
  int pick(int n) {
    return static_cast<int>(
        std::uniform_int_distribution<int>(0, n - 1)(gen));
  }
};

inline std::string gen_term(Rng& rng, int depth) {
  if (depth <= 0 || rng.pick(3) == 0) {
    switch (rng.pick(5)) {
      case 0: return "a[i * w + tx]";
      case 1: return "b[i]";
      case 2: return "a[i]";
      case 3: return "0.5f";
      default: return "-0.75f";
    }
  }
  std::string x = gen_term(rng, depth - 1);
  std::string y = gen_term(rng, depth - 1);
  switch (rng.pick(6)) {
    case 0: return "(" + x + " + " + y + ")";
    case 1: return "(" + x + " - " + y + ")";
    case 2: return "(" + x + " * " + y + ")";
    case 3: return "fminf(" + x + ", " + y + ")";
    case 4: return "fmaxf(" + x + ", " + y + ")";
    default: return "fabsf(" + x + ")";
  }
}

inline std::string gen_kernel_source(std::uint64_t seed) {
  Rng rng(seed);
  const char* ops[] = {"+", "*", "min", "max"};
  const char* op = ops[rng.pick(4)];
  std::string term = gen_term(rng, 2);
  std::string init, combine;
  if (op[0] == '+') {
    init = "0.0f";
    combine = "acc += " + term + ";";
  } else if (op[0] == '*') {
    // Inputs are in [-1, 1]; keep multiplicative factors near one so an
    // 8-term product stays far from overflow and from underflow-to-zero
    // (either would let a skewed store hide behind saturated values).
    init = "1.0f";
    combine = "acc *= (0.75f + 0.25f * fabsf(" + term + "));";
  } else if (op[0] == 'm' && op[1] == 'i') {
    init = "1.0e30f";
    combine = "acc = fminf(acc, " + term + ");";
  } else {
    init = "-1.0e30f";
    combine = "acc = fmaxf(acc, " + term + ");";
  }
  std::string post = rng.pick(2) == 0 ? "acc" : "acc * 0.5f";
  std::string src;
  src += "__global__ void k(float* a, float* b, float* c, int w, int h) {\n";
  src += "  float acc = " + init + ";\n";
  src += "  int tx = threadIdx.x + blockIdx.x * blockDim.x;\n";
  src += "  #pragma np parallel for reduction(" + std::string(op) +
         ":acc)\n";
  src += "  for (int i = 0; i < h; i++) {\n";
  src += "    " + combine + "\n";
  src += "  }\n";
  src += "  c[tx] = " + post + ";\n";
  src += "}\n";
  return src;
}

}  // namespace cudanp::cert_fuzz
