#pragma once

#include <concepts>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "artemis/codegen/plan.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/profile/profiler.hpp"
#include "artemis/robust/candidate_runner.hpp"
#include "artemis/robust/journal.hpp"

namespace artemis::autotune {

/// Version of the tuning algorithm, baked into plan-store content keys
/// (storage::plan_store_key). Bump it whenever a change to the search —
/// pruning rules, stage structure, evaluation policy — could make a
/// previously stored plan stale; old plans then miss instead of being
/// silently reused.
constexpr int kTunerVersion = 1;

/// A kernel configuration as one human-readable key=value line. It is the
/// candidate's identity: journal keys, leaderboard dedup and
/// storage::PlanRecord::config all compare these strings, so every
/// KernelConfig field must show in it.
std::string serialize_config(const codegen::KernelConfig& cfg);

/// Configures candidate configurations into plans. A sweep keeps one plan
/// and passes it to every candidate it prices.
///
/// Built from a stage template, the factory configures each candidate
/// into that plan in place (codegen::try_configure): only the
/// config-dependent members are rewritten, and the template is copied
/// only into an empty plan. Built from a callable that returns whole
/// plans (a KernelPlan or an optional one), it moves each result into the
/// plan, and a nullopt reads as infeasible. In both forms a thrown
/// PlanError reads as infeasible too: the template's captured
/// config-independent failure, or a callable wrapping build_plan.
///
/// The plan may not depend on cfg.max_registers beyond carrying it in
/// plan.config: register escalation builds each candidate once and sets
/// the settled budget on that plan.
class PlanFactory {
 public:
  /// `tmpl` must outlive the factory.
  PlanFactory(const codegen::StageTemplate& tmpl,
              const gpumodel::DeviceSpec& dev);

  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, PlanFactory> &&
             std::is_invocable_r_v<std::optional<codegen::KernelPlan>,
                                   const F&, const codegen::KernelConfig&>)
  PlanFactory(F build)  // implicit: a lambda passes where a factory goes
      : configure_([build = std::move(build)](
                       const codegen::KernelConfig& cfg,
                       codegen::KernelPlan& plan) {
          try {
            std::optional<codegen::KernelPlan> built = build(cfg);
            if (!built) return false;
            plan = std::move(*built);
            return true;
          } catch (const PlanError&) {
            return false;
          }
        }) {}

  /// Configure `cfg` into `plan`, which is empty or was last filled by
  /// this factory; false when `cfg` is infeasible (`plan` then holds no
  /// configuration).
  bool operator()(const codegen::KernelConfig& cfg,
                  codegen::KernelPlan& plan) const {
    return configure_(cfg, plan);
  }

 private:
  std::function<bool(const codegen::KernelConfig&, codegen::KernelPlan&)>
      configure_;
};

/// Search-space pruning rules (Section V): powers of two, block dims in
/// [4, 256], unroll bounded by 8 (bandwidth-bound) or 4 (compute-bound).
struct TuneOptions {
  int min_block = 4;
  int max_block = 256;
  int max_unroll_bandwidth = 8;
  int max_unroll_compute = 4;
  /// Candidates promoted from the high-impact stage to the refinement
  /// stage of hierarchical tuning.
  int top_k = 4;
  /// Stage 1 explores both spatial tiling and serial streaming (the
  /// paper's default: "serial streaming enabled by default if shared
  /// memory is used"); disable to pin the seed's tiling scheme.
  bool explore_tiling = true;
  /// Stage-2 toggles.
  bool tune_prefetch = true;
  bool tune_perspective = true;
  bool tune_concurrent_streaming = true;
  /// Register budgets explored in escalation order.
  std::vector<int> register_budgets = {32, 64, 128, 255};
  /// Profiler-driven pruning: skip unrolling entirely (register-pressure
  /// or compute-bound kernels, Section IV-A).
  bool disable_unroll = false;
  /// Theoretical machine-balance classification of the kernel, used to
  /// bound unroll factors. True = bandwidth-bound.
  bool theoretically_bandwidth_bound = true;
  /// Optional crash-safe evaluation journal (non-owning). When set,
  /// every evaluated candidate is write-ahead recorded, and records
  /// loaded from a resumed journal are replayed instead of re-evaluated.
  robust::TuningJournal* journal = nullptr;
  /// Namespace prefixed to candidate journal/quarantine keys so
  /// identical configs tuned for different stage lists, memory versions
  /// or fusion degrees never collide.
  std::string journal_scope;
  /// Accepted and ignored: every search runs its sweeps on the calling
  /// thread, so any value returns the same result. Spread over a pool, a
  /// sweep cost more CPU and no less wall time (docs/PERFORMANCE.md,
  /// "Tuner hot path").
  int jobs = 1;
};

/// One evaluated configuration.
struct Candidate {
  codegen::KernelConfig config;
  gpumodel::KernelEval eval;
  double time_s = 0;
};

/// Outcome of a tuning run.
struct TuneResult {
  Candidate best;
  std::vector<Candidate> leaderboard;  ///< best-first, top_k entries
  int evaluated_stage1 = 0;            ///< configs tried in stage 1
  int evaluated_stage2 = 0;            ///< configs tried in stage 2
  int skipped_spilling = 0;            ///< pruned by register escalation
  int infeasible = 0;                  ///< PlanError / invalid launches
  // Resilience accounting (counts are per tuning run; the matching
  // process-wide telemetry counters are listed in docs/ROBUSTNESS.md).
  int crashed = 0;        ///< candidates lost to EvalCrash after retries
  int timed_out = 0;      ///< candidates lost to EvalTimeout after retries
  int quarantined = 0;    ///< keys quarantined during this run
  int journal_hits = 0;   ///< candidates replayed from a resumed journal
  /// The search came up empty and fell back to the baseline seed config
  /// instead of throwing (a telemetry warning was emitted).
  bool degraded = false;
  int total_evaluated() const { return evaluated_stage1 + evaluated_stage2; }
};

/// Hierarchical autotuning (Section V). Stage 1 sweeps the high-impact
/// knobs: thread-block shape and unroll factors (explored in increasing
/// unroll volume with dynamic register-budget escalation so only
/// spill-free configurations are evaluated), with serial streaming enabled
/// by default when shared memory is used. Stage 2 takes the top_k
/// candidates and toggles prefetching, concurrent streaming, and thread
/// block load/compute adjustment on them.
TuneResult hierarchical_tune(const PlanFactory& factory,
                             const codegen::KernelConfig& seed,
                             const gpumodel::DeviceSpec& dev,
                             const gpumodel::ModelParams& params = {},
                             const TuneOptions& opts = {});

/// Exhaustive sweep over the full cross product (the OpenTuner stand-in
/// used by the tuning-cost experiment). Returns the same result shape;
/// evaluated counts show the cost difference.
TuneResult exhaustive_tune(const PlanFactory& factory,
                           const codegen::KernelConfig& seed,
                           const gpumodel::DeviceSpec& dev,
                           const gpumodel::ModelParams& params = {},
                           const TuneOptions& opts = {});

/// Random-sampling tuner: the generic-search (OpenTuner-style) stand-in
/// that Section V compares against. Draws `budget` configurations
/// uniformly from the unpruned space (any power-of-two shape, any unroll,
/// any register budget / prefetch / perspective) and keeps the best.
/// Deterministic for a given `rng_seed`.
TuneResult random_tune(const PlanFactory& factory,
                       const codegen::KernelConfig& seed,
                       const gpumodel::DeviceSpec& dev,
                       const gpumodel::ModelParams& params,
                       const TuneOptions& opts, int budget,
                       std::uint64_t rng_seed = 0x7777);

/// Enumerate the pruned block shapes for a given dimensionality.
std::vector<std::array<int, 3>> candidate_blocks(int dims, bool streaming,
                                                 const TuneOptions& opts);

/// Enumerate pruned unroll vectors in increasing unroll-volume order.
std::vector<std::array<int, 3>> candidate_unrolls(int dims,
                                                  const TuneOptions& opts);

}  // namespace artemis::autotune
