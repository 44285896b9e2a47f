#pragma once

#include <array>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "artemis/codegen/plan.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/ir/analysis.hpp"

namespace artemis::codegen {

/// Knobs that select a code *version* rather than tuned parameters; the
/// paper's "global" / "global-stream" / "sh+reg" variants differ here.
struct BuildOptions {
  bool use_shared_memory = true;  ///< stage reusable arrays in shmem
  /// Treat stage outputs consumed by later stages as kernel-internal
  /// buffers (fused execution). Always true for multi-stage plans.
  bool fuse_internal = true;
};

/// The config-independent half of a plan build: everything build_plan
/// derives from the program, the stage list and the BuildOptions alone.
/// A tuner builds one per (stage list, options) and calls try_configure()
/// once per candidate, so the stage analysis runs once per tune instead of
/// once per candidate.
///
/// Built eagerly: the merged StencilInfo, per-stage FLOPs, radii and
/// overlapped-tiling expansion, per-array effective halos, the output
/// domain, internal and materialized arrays, the base placement (with
/// `#assign` pins), the per-point register terms and per-array access
/// counts. Built on first request, thread-safe: the retiming verdict per
/// streaming iterator and the fold groups, which only retime/fold
/// configurations need, so a one-shot build_plan does no work its config
/// does not ask for.
///
/// A config-independent failure (no output statement, an undeclared
/// output array) is captured here and rethrown by every configure() and
/// try_configure(), so errors surface in the same order build_plan always
/// raised them.
class StageTemplate {
 public:
  StageTemplate(const ir::Program& prog, std::vector<ir::BoundStencil> stages,
                const BuildOptions& opts = {});

  StageTemplate(const StageTemplate&) = delete;
  StageTemplate& operator=(const StageTemplate&) = delete;

 private:
  /// The config-dependent parts of one plan, decided before any copy of
  /// the template is made.
  struct Fit;
  /// Why a config cannot run on the device.
  struct Rejection;

  friend KernelPlan configure(const StageTemplate&, const KernelConfig&,
                              const gpumodel::DeviceSpec&);
  friend std::optional<KernelPlan> try_configure(const StageTemplate&,
                                                 const KernelConfig&,
                                                 const gpumodel::DeviceSpec&);
  friend KernelPlan build_plan(const ir::Program&,
                               std::vector<ir::BoundStencil>,
                               const KernelConfig&,
                               const gpumodel::DeviceSpec&,
                               const BuildOptions&);

  /// Decide `config` into `fit`, or return why it cannot run: a rejection
  /// is a value, not an exception, so the tuner pays nothing to reject.
  std::optional<Rejection> fit(const KernelConfig& config,
                               const gpumodel::DeviceSpec& dev,
                               Fit& fit) const;
  /// fit(), with a rejection thrown as PlanError.
  Fit fit_or_throw(const KernelConfig& config,
                   const gpumodel::DeviceSpec& dev) const;
  bool retimes(int stream_iter) const;
  const std::vector<std::vector<std::string>>& fold_groups() const;

  /// Every config-independent KernelPlan field; the config-dependent ones
  /// keep their defaults until configure() fills them in.
  KernelPlan base_;
  /// Syntactic accesses per array across all stages (rationing order).
  std::map<std::string, std::int64_t> accesses_;
  std::exception_ptr failure_;

  mutable std::array<std::once_flag, 3> retime_once_;
  mutable std::array<bool, 3> retimes_ = {false, false, false};
  mutable std::once_flag fold_once_;
  mutable std::vector<std::vector<std::string>> fold_groups_;
};

/// Specialize a template to one candidate configuration: launch
/// validity, the retiming and folding decisions, shared memory per block
/// and the resource-rationing loop (Sections II-B, III). All of it runs on
/// the placement alone; the template is copied into a plan only once the
/// configuration has passed. Throws PlanError for a configuration the
/// device cannot run. Thread-safe on a shared template.
KernelPlan configure(const StageTemplate& tmpl, const KernelConfig& config,
                     const gpumodel::DeviceSpec& dev);

/// configure() for a caller that expects most configurations to fail, the
/// tuner: nullopt where configure() throws PlanError, and the same plan
/// otherwise. A config-independent failure captured by the template is
/// still thrown. Thread-safe on a shared template.
std::optional<KernelPlan> try_configure(const StageTemplate& tmpl,
                                        const KernelConfig& config,
                                        const gpumodel::DeviceSpec& dev);

/// Construct a fully-resolved KernelPlan for a (possibly fused) sequence
/// of bound stencils: configure(StageTemplate(prog, stages, opts), ...),
/// moving the one-shot template into the plan instead of copying it.
///
/// Responsibilities (Sections II-B, III, VI):
///  - merge per-stage analysis into combined info, halo radii, domain;
///  - resolve array residency: user `#assign` pins are honored verbatim,
///    remaining arrays follow the default heuristic (everything reusable
///    into shared memory when enabled — deliberately naive, the profiler
///    and the expert override refine it);
///  - apply storage folding and retiming when requested and legal;
///  - compute shared memory per block and run the resource-rationing loop:
///    while the target occupancy (or device capacity) is not achievable,
///    demote the shared array with the fewest accesses to global memory.
///
/// Throws PlanError for launches the device can never run (block too big,
/// zero-sized tiles).
KernelPlan build_plan(const ir::Program& prog,
                      std::vector<ir::BoundStencil> stages,
                      const KernelConfig& config,
                      const gpumodel::DeviceSpec& dev,
                      const BuildOptions& opts = {});

/// Convenience: plan a single call step of `prog` (no fusion).
KernelPlan build_plan_for_call(const ir::Program& prog,
                               const ir::StencilCall& call,
                               const KernelConfig& config,
                               const gpumodel::DeviceSpec& dev,
                               const BuildOptions& opts = {});

/// Derive an initial KernelConfig from the stencil's `#pragma` guidance
/// (stream dimension, block size, unroll factors, occupancy target),
/// falling back to the paper's baseline defaults.
KernelConfig config_from_pragma(const ir::Program& prog,
                                const ir::PragmaInfo& pragma, int dims);

}  // namespace artemis::codegen
