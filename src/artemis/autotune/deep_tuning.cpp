#include "artemis/autotune/deep_tuning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "artemis/common/check.hpp"

namespace artemis::autotune {

DeepTuneResult deep_tune(int max_time_tile, const TileTuner& tune_tile) {
  DeepTuneResult result;
  bool past_cusp = false;
  for (int x = 1; x <= max_time_tile; ++x) {
    DeepTuneEntry entry;
    try {
      entry = tune_tile(x);
    } catch (const PlanError&) {
      // Resource constraints leave no feasible configuration at this
      // fusion degree; deeper fusion cannot become feasible again.
      break;
    }
    const bool still_bandwidth_bound =
        entry.report.bandwidth_bound_anywhere();
    result.entries.push_back(std::move(entry));

    // Fusion only helps while some bandwidth roof is binding (Section
    // VI-A); stop after recording one post-cusp point for the plot.
    if (!still_bandwidth_bound) {
      if (past_cusp) break;
      past_cusp = true;
    }
  }

  // Tipping point: fastest per-step version.
  double best_per_step = std::numeric_limits<double>::infinity();
  for (const auto& e : result.entries) {
    const double per_step = e.time_s / e.time_tile;
    if (per_step < best_per_step) {
      best_per_step = per_step;
      result.tipping_point = e.time_tile;
    }
  }
  return result;
}

DeepTuneResult deep_tune(const ir::Program& prog,
                         const ir::Step& iterate_step,
                         const gpumodel::DeviceSpec& dev,
                         const gpumodel::ModelParams& params,
                         const DeepTuneOptions& opts) {
  return deep_tune(opts.max_time_tile, [&](int x) {
    const transform::TimeTiledKernel tt =
        transform::time_tile_iterate(prog, iterate_step, x);

    // One template per fused version: each tuner evaluation only
    // configures it for its config.
    const codegen::StageTemplate tmpl(tt.augmented, tt.stages);
    const PlanFactory factory(tmpl, dev);

    codegen::KernelConfig seed;
    seed.tiling = codegen::TilingScheme::StreamSerial;
    seed.stream_axis = static_cast<int>(prog.iterators.size()) - 1;
    seed.time_tile = x;

    DeepTuneEntry entry;
    entry.time_tile = x;
    entry.tuned = hierarchical_tune(factory, seed, dev, params, opts.tune);
    entry.time_s = entry.tuned.best.time_s;
    entry.tflops = entry.tuned.best.eval.tflops();
    entry.report = profile::profile_plan(
        codegen::configure(tmpl, entry.tuned.best.config, dev), dev, params);
    return entry;
  });
}

std::vector<int> fusion_schedule(const DeepTuneResult& result, int T) {
  ARTEMIS_CHECK(T >= 0);
  ARTEMIS_CHECK_MSG(!result.entries.empty(), "no deep-tuned versions");

  // f(x) by tile size.
  const int k = result.entries.back().time_tile;
  std::vector<double> f(static_cast<std::size_t>(k) + 1,
                        std::numeric_limits<double>::infinity());
  for (const auto& e : result.entries) {
    f[static_cast<std::size_t>(e.time_tile)] = e.time_s;
  }

  std::vector<double> opt(static_cast<std::size_t>(T) + 1,
                          std::numeric_limits<double>::infinity());
  std::vector<int> choice(static_cast<std::size_t>(T) + 1, 0);
  opt[0] = 0.0;
  for (int t = 1; t <= T; ++t) {
    for (int x = 1; x <= std::min(k, t); ++x) {
      if (!std::isfinite(f[static_cast<std::size_t>(x)])) continue;
      const double cand =
          f[static_cast<std::size_t>(x)] + opt[static_cast<std::size_t>(t - x)];
      if (cand < opt[static_cast<std::size_t>(t)]) {
        opt[static_cast<std::size_t>(t)] = cand;
        choice[static_cast<std::size_t>(t)] = x;
      }
    }
  }
  ARTEMIS_CHECK_MSG(T == 0 || std::isfinite(opt[static_cast<std::size_t>(T)]),
                    "no feasible fusion schedule for T=" << T);

  std::vector<int> schedule;
  for (int t = T; t > 0; t -= choice[static_cast<std::size_t>(t)]) {
    schedule.push_back(choice[static_cast<std::size_t>(t)]);
  }
  std::sort(schedule.rbegin(), schedule.rend());
  return schedule;
}

double schedule_time(const DeepTuneResult& result,
                     const std::vector<int>& schedule) {
  double total = 0;
  for (const int x : schedule) {
    bool found = false;
    for (const auto& e : result.entries) {
      if (e.time_tile == x) {
        total += e.time_s;
        found = true;
        break;
      }
    }
    ARTEMIS_CHECK_MSG(found, "schedule uses untuned tile size " << x);
  }
  return total;
}

}  // namespace artemis::autotune
