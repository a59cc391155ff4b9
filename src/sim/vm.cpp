#include "sim/vm.hpp"

namespace cudanp::sim::vm {

KernelStats run_block(const bytecode::Program& program, const DeviceSpec& spec,
                      DeviceMemory& mem, const Interpreter::Options& opt,
                      const BoundKernel& bound, const LaunchConfig& cfg,
                      Dim3 block_idx, int resident_blocks,
                      exec::BlockSanitizer* san, std::int64_t flat_block,
                      std::int64_t max_steps) {
  Machine<exec::BlockCore> block(program, spec, mem, opt, bound, cfg,
                                 block_idx, resident_blocks, san, flat_block,
                                 max_steps);
  block.stall_if_injected();
  block.run();
  return block.collect_stats();
}

}  // namespace cudanp::sim::vm
