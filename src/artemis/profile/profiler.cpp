#include "artemis/profile/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "artemis/common/str.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::profile {

namespace {

/// Modelled execution time with one memory level's traffic "confined to a
/// single thread block" (Listing 3): the level's time component collapses
/// and the roofline is re-taken. This is the profiler's code-differencing
/// variant V' — if V' is much faster, V was bandwidth-bound at that level.
double time_without_level(const gpumodel::KernelEval& ev, Level level) {
  double t_dram = ev.t_dram, t_tex = ev.t_tex, t_shm = ev.t_shm;
  switch (level) {
    case Level::Dram: t_dram = 0; break;
    case Level::Tex: t_tex = 0; break;
    case Level::Shm: t_shm = 0; break;
  }
  const double t_mem = std::max({t_dram, t_tex, t_shm});
  // The overlap residual is already small; use full overlap for V'.
  return std::max(t_mem, ev.t_compute);
}

LevelVerdict classify(double oi, double balance, bool has_traffic) {
  if (!has_traffic) return LevelVerdict::NoTraffic;
  if (oi < kBandwidthMargin * balance) return LevelVerdict::BandwidthBound;
  if (oi >= kComputeMargin * balance) return LevelVerdict::ComputeBound;
  return LevelVerdict::Inconclusive;
}

}  // namespace

const char* level_name(Level l) {
  switch (l) {
    case Level::Dram: return "dram";
    case Level::Tex: return "tex";
    case Level::Shm: return "shm";
  }
  return "?";
}

const char* level_verdict_name(LevelVerdict v) {
  switch (v) {
    case LevelVerdict::BandwidthBound: return "bandwidth-bound";
    case LevelVerdict::ComputeBound: return "compute-bound";
    case LevelVerdict::Inconclusive: return "inconclusive";
    case LevelVerdict::NoTraffic: return "no-traffic";
  }
  return "?";
}

ProfileReport profile_plan(const codegen::KernelPlan& plan,
                           const gpumodel::DeviceSpec& dev,
                           const gpumodel::ModelParams& params) {
  const telemetry::Span span("profile.plan", "profile");
  robust::fault_point("profile.plan", plan.name);
  ProfileReport rep;
  rep.eval = gpumodel::evaluate(plan, dev, params);
  const auto& c = rep.eval.counters;

  rep.oi_dram = c.oi_dram();
  rep.oi_tex = c.oi_tex();
  rep.oi_shm = c.oi_shm();
  rep.balance_dram = dev.balance_dram();
  rep.balance_tex = dev.balance_tex();
  rep.balance_shm = dev.balance_shm();

  if (!rep.eval.valid) {
    rep.latency_bound = false;
    rep.register_pressure = true;
    return rep;
  }

  rep.dram = classify(rep.oi_dram, rep.balance_dram, c.dram_bytes() > 0);
  rep.tex = classify(rep.oi_tex, rep.balance_tex, c.tex_bytes > 0);
  rep.shm = classify(rep.oi_shm, rep.balance_shm, c.shm_bytes > 0);

  // Code differencing for near-ridge levels.
  auto difference = [&](Level level, LevelVerdict& verdict) {
    if (verdict != LevelVerdict::Inconclusive) return;
    const double t0 = rep.eval.time_s;
    const double t1 = time_without_level(rep.eval, level);
    verdict = (t0 - t1) / t0 > kDifferencingThreshold
                  ? LevelVerdict::BandwidthBound
                  : LevelVerdict::ComputeBound;
    rep.differenced.push_back(level);
  };
  difference(Level::Dram, rep.dram);
  difference(Level::Tex, rep.tex);
  difference(Level::Shm, rep.shm);

  rep.latency_bound = rep.eval.bound == gpumodel::Bound::Latency;
  rep.compute_bound =
      !rep.latency_bound &&
      rep.dram != LevelVerdict::BandwidthBound &&
      rep.tex != LevelVerdict::BandwidthBound &&
      rep.shm != LevelVerdict::BandwidthBound;

  const int spilled =
      rep.eval.regs.spilled(plan.config.max_registers);
  rep.register_pressure =
      spilled > 0 ||
      (rep.eval.occupancy.limiter ==
           gpumodel::Occupancy::Limiter::Registers &&
       rep.eval.occupancy.fraction <= 0.25);

  // One structured event per profiled kernel: the per-level OI/balance
  // pairs, the roofline verdicts, and whether code differencing (rather
  // than the plain thresholds) settled each verdict (Section IV).
  if (telemetry::enabled()) {
    const auto differenced_at = [&](Level l) {
      return std::find(rep.differenced.begin(), rep.differenced.end(), l) !=
             rep.differenced.end();
    };
    std::vector<telemetry::Attr> args;
    args.push_back({"kernel", Json(plan.name)});
    const struct {
      Level level;
      double oi, balance;
      LevelVerdict verdict;
    } rows[] = {{Level::Dram, rep.oi_dram, rep.balance_dram, rep.dram},
                {Level::Tex, rep.oi_tex, rep.balance_tex, rep.tex},
                {Level::Shm, rep.oi_shm, rep.balance_shm, rep.shm}};
    for (const auto& row : rows) {
      const std::string prefix = level_name(row.level);
      args.push_back({prefix + "_oi", Json(row.oi)});
      args.push_back({prefix + "_balance", Json(row.balance)});
      args.push_back({prefix + "_verdict", Json(level_verdict_name(row.verdict))});
      args.push_back({prefix + "_differenced", Json(differenced_at(row.level))});
    }
    args.push_back({"latency_bound", Json(rep.latency_bound)});
    args.push_back({"compute_bound", Json(rep.compute_bound)});
    args.push_back({"register_pressure", Json(rep.register_pressure)});
    args.push_back({"time_ms", Json(rep.eval.time_s * 1e3)});
    telemetry::instant("profile.verdict", "profile", std::move(args));
  }
  return rep;
}

std::string ProfileReport::summary() const {
  std::string s = str_cat(
      "OI(dram)=", format_double(oi_dram, 3), "/", format_double(balance_dram, 3),
      " [", level_verdict_name(dram), "]  OI(tex)=", format_double(oi_tex, 3),
      "/", format_double(balance_tex, 3), " [", level_verdict_name(tex),
      "]  OI(shm)=", format_double(oi_shm, 3), "/",
      format_double(balance_shm, 3), " [", level_verdict_name(shm), "]");
  if (latency_bound) s += "  latency-bound";
  if (compute_bound) s += "  compute-bound";
  if (register_pressure) s += "  register-pressure";
  return s;
}

OptimizationHints derive_hints(const ProfileReport& report, bool iterative,
                               bool uses_shmem) {
  OptimizationHints h;
  if (report.compute_bound) {
    // Shared-memory staging and ILP tricks cannot help a compute-bound
    // kernel; reduce FLOPs instead (folding, CSE).
    h.disable_shmem_opts = true;
    h.disable_unroll = true;
    h.apply_flop_reduction = true;
    h.text.push_back(
        "kernel is compute-bound: disabling shared-memory and unrolling "
        "optimizations; applying FLOP-reducing rewrites (folding)");
  }
  if (report.register_pressure) {
    h.disable_unroll = true;
    h.generate_fission_candidates = true;
    h.text.push_back(
        "high register pressure / spills detected: unrolling disabled, "
        "generating kernel fission candidates (trivial, recompute)");
  }
  if (iterative && (report.bandwidth_bound_at(Level::Tex) ||
                    report.bandwidth_bound_at(Level::Dram))) {
    h.try_higher_fusion = true;
    h.text.push_back(
        "iterative stencil is bandwidth-bound at texture/DRAM: exploring a "
        "higher fusion degree (time tiling)");
  }
  if (!iterative && report.bandwidth_bound_at(Level::Tex) && !uses_shmem) {
    h.enable_shmem = true;
    h.text.push_back(
        "spatial stencil is texture-cache bandwidth-bound: enabling "
        "shared-memory staging");
  }
  if (!iterative && uses_shmem && report.bandwidth_bound_at(Level::Dram)) {
    h.prefer_global_version = true;
    h.text.push_back(
        "spatial stencil remains DRAM bandwidth-bound despite shared "
        "memory: tuning the global-memory version; consider algorithmic "
        "reduction of DRAM traffic or stencil order");
  }
  if (report.bandwidth_bound_at(Level::Shm)) {
    h.enable_register_opts = true;
    h.text.push_back(
        "kernel is shared-memory bandwidth-bound: enabling register-level "
        "optimizations (retiming, register planes, blocked unrolling)");
  }
  return h;
}

}  // namespace artemis::profile
