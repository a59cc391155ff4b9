// Bytecode VM: the simulator's kernel executor.
//
// Executes the flat instruction stream produced by sim/bytecode.cpp with
// a dispatch loop over SoA lane state — virtual registers are contiguous
// per-lane vectors, masks live on a preallocated stack sized by the
// lowering — so a launch pays no per-node heap allocation and no
// recursion. Charges, watchdog, sanitizer and memory paths come from
// exec::BlockCore.
//
// Implementation detail of sim/; include only from the interpreter and
// tests.
#pragma once

#include <cstdint>

#include "sim/binder.hpp"
#include "sim/bytecode.hpp"
#include "sim/exec_core.hpp"
#include "sim/interpreter.hpp"
#include "sim/launch.hpp"
#include "sim/memory.hpp"

namespace cudanp::sim::vm {

/// Runs one block of a launch over the lowered program and returns its
/// stats; hazards go to `san` (when non-null), failures throw SimError.
[[nodiscard]] KernelStats run_block(const bytecode::Program& program,
                                    const DeviceSpec& spec, DeviceMemory& mem,
                                    const Interpreter::Options& opt,
                                    const BoundKernel& bound,
                                    const LaunchConfig& cfg, Dim3 block_idx,
                                    int resident_blocks,
                                    exec::BlockSanitizer* san,
                                    std::int64_t flat_block,
                                    std::int64_t max_steps);

}  // namespace cudanp::sim::vm
