#pragma once

#include <optional>
#include <string>
#include <vector>

#include "artemis/autotune/deep_tuning.hpp"
#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/ir/program.hpp"
#include "artemis/profile/profiler.hpp"

namespace artemis::driver {

/// How a code generator attacks a program. ARTEMIS' own strategy enables
/// everything and lets profiling steer; the baseline presets encode the
/// documented restrictions of PPCG and STENCILGEN (Section VIII-F).
struct Strategy {
  std::string name = "artemis";

  bool use_shared_memory = true;
  bool allow_streaming = true;           ///< serial streaming available
  bool allow_time_fusion = true;         ///< deep tuning for iterate blocks
  bool allow_dag_fusion = true;          ///< fuse spatial producer chains
  /// Search over contiguous fusion partitions of the call chain with a
  /// dynamic program (the near-optimal "fusion forest" of Section VI-B)
  /// instead of always fusing maximally. STENCILGEN keeps maxfuse-only.
  bool partition_dag = true;
  bool allow_fission = true;             ///< fission candidates (VI-B)
  bool allow_retime = true;
  bool allow_fold = true;
  bool profile_guided = true;            ///< Section IV-A guidelines
  bool reject_mixed_dims = false;        ///< STENCILGEN limitation
  int max_time_tile = 6;

  autotune::TuneOptions tune;

  /// Multiplier on modelled kernel time, modelling code-quality overheads
  /// outside the plan space (e.g. PPCG's complex conditionals).
  double time_multiplier = 1.0;
};

Strategy artemis_strategy();
Strategy ppcg_strategy();
Strategy stencilgen_strategy();
/// The Halide GPU autoscheduler stand-in (Section I: "leading to a 2x
/// slowdown in performance for complex stencils"): heuristic tiling and
/// greedy maximal fusion, no streaming, no register-budget tuning, no
/// profiling feedback.
Strategy halide_auto_strategy();
/// The paper's ablation versions: tuned global-memory-only code, either
/// 3D-tiled ("global") or streaming ("global-stream").
Strategy global_strategy(bool streaming);

/// What builds one scheduled kernel. The driver tunes every kernel from
/// its recipe, and kernel_plan() builds the kernel's plan from the recipe
/// and its config, so what a schedule reports is what gets emitted,
/// profiled and measured.
struct KernelRecipe {
  /// The program the kernel's stages bind against: the input program, or
  /// the fission candidate that won.
  ir::Program program;
  /// The run of `program`'s steps the kernel fuses, inclusive. An iterate
  /// block is one step; the config's time_tile sets how many of its
  /// iterations the kernel fuses.
  int first_call = 0, last_call = 0;
  bool use_shared_memory = true;  ///< the memory version the tuner chose
};

/// Bind a recipe and build its plan under `config`. `bound_program`, when
/// non-null, receives the program the plan binds against (for an iterate
/// block, the time-tiled program with its synthesized arrays): allocate
/// grids and emit CUDA from it. Throws PlanError when `config` is
/// infeasible for the recipe.
codegen::KernelPlan kernel_plan(const KernelRecipe& recipe,
                                const codegen::KernelConfig& config,
                                const gpumodel::DeviceSpec& dev,
                                ir::Program* bound_program = nullptr);

/// One kernel in the final schedule.
struct KernelChoice {
  std::string name;
  KernelRecipe recipe;
  codegen::KernelConfig config;
  gpumodel::KernelEval eval;
  int invocations = 1;
  /// Final tuning leaderboard (best first) for the search that produced
  /// `config`, when the kernel was tuned. Observability only: --metrics
  /// reranks these candidates by measured traffic to compute the
  /// model-vs-measured rank correlation.
  std::vector<autotune::Candidate> leaderboard;
  double time_s() const { return eval.time_s * invocations; }
};

/// Result of optimizing a whole program under a strategy.
struct ProgramResult {
  std::string strategy;
  std::vector<KernelChoice> kernels;
  double time_s = 0;              ///< total, incl. launch overhead
  std::int64_t useful_flops = 0;  ///< per full program execution
  double tflops = 0;
  int kernel_launches = 0;

  std::vector<std::string> hints;          ///< profiling guidance (IV-A)
  std::vector<std::string> candidate_dsl;  ///< emitted fission candidates
  std::optional<autotune::DeepTuneResult> deep_tuning;  ///< iterative only
  std::vector<int> fusion_schedule;        ///< chosen tiles for T
};

/// Optimize a program end-to-end (Section VII): derive a baseline from
/// the DSL pragmas, autotune, profile the winner, follow the Section IV-A
/// guidelines (switch memory versions, explore fusion degree via deep
/// tuning, emit and evaluate fission candidates under register pressure),
/// and return the best multi-kernel schedule with its modelled time.
/// Throws artemis::Error when the strategy cannot handle the program
/// (e.g. STENCILGEN with mixed-dimensionality arrays).
ProgramResult optimize_program(const ir::Program& prog,
                               const gpumodel::DeviceSpec& dev,
                               const gpumodel::ModelParams& params = {},
                               const Strategy& strategy = artemis_strategy());

}  // namespace artemis::driver
