#pragma once

// The check that a schedule's kernels rebuild as tuned, shared by the
// tests that optimize whole programs.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "artemis/driver/driver.hpp"

namespace artemis::testing {

/// Every field of a model evaluation as text, doubles to the last bit.
inline std::string eval_bits(const gpumodel::KernelEval& e) {
  std::string s;
  const auto& c = e.counters;
  for (const std::int64_t v :
       {c.flops, c.dram_read_bytes, c.dram_write_bytes, c.tex_bytes,
        c.shm_bytes, c.spill_bytes, c.num_blocks, e.useful_flops}) {
    s += std::to_string(v) + " ";
  }
  const auto& r = e.regs;
  const auto& o = e.occupancy;
  for (const int v :
       {r.base, r.locals, r.operands, r.scheduling, r.stream_planes,
        r.accumulators, r.prefetch, r.fold_savings, r.total,
        o.active_blocks_per_sm, o.active_warps_per_sm,
        static_cast<int>(o.limiter), static_cast<int>(e.bound),
        static_cast<int>(e.valid)}) {
    s += std::to_string(v) + " ";
  }
  for (const double v : {r.unroll_scale, o.fraction, e.t_dram, e.t_tex,
                         e.t_shm, e.t_compute, e.time_s}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a ", v);
    s += buf;
  }
  return s + e.invalid_reason;
}

/// Every kernel of `result` rebuilds as the plan it was tuned as: the
/// model evaluates kernel_plan(recipe, config) bitwise to the kernel's
/// recorded eval.
inline void expect_recipes_rebuild(const driver::ProgramResult& result,
                                   const gpumodel::DeviceSpec& dev,
                                   const gpumodel::ModelParams& params,
                                   const std::string& context) {
  for (const auto& k : result.kernels) {
    const auto plan = driver::kernel_plan(k.recipe, k.config, dev);
    EXPECT_EQ(eval_bits(gpumodel::evaluate(plan, dev, params)),
              eval_bits(k.eval))
        << context << " kernel " << k.name;
  }
}

}  // namespace artemis::testing
