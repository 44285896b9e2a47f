#include "artemis/driver/context.hpp"

#include <functional>
#include <utility>

#include "artemis/common/grid.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/gridset.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::driver {

gpumodel::DeviceSpec device_by_name(const std::string& name) {
  if (name == "k40") return gpumodel::k40();
  if (name == "p100") return gpumodel::p100();
  if (name == "v100") return gpumodel::v100();
  if (name == "a100") return gpumodel::a100();
  if (name == "h100") return gpumodel::h100();
  throw Error(str_cat(
      "unknown device '", name, "' (expected k40|p100|v100|a100|h100)"));
}

Strategy strategy_by_name(const std::string& name) {
  if (name == "artemis") return artemis_strategy();
  if (name == "ppcg") return ppcg_strategy();
  if (name == "stencilgen") return stencilgen_strategy();
  if (name == "global") return global_strategy(false);
  if (name == "global-stream") return global_strategy(true);
  throw Error(str_cat("unknown strategy '", name, "'"));
}

ArtemisContext::ArtemisContext(ContextOptions opts)
    : opts_(std::move(opts)),
      vfs_(opts_.vfs != nullptr ? opts_.vfs : &storage::real_vfs()) {
  if (!opts_.store_root.empty()) {
    store_.emplace(*vfs_, opts_.store_root);
  }
}

int ArtemisContext::resolved_jobs() const {
  return opts_.jobs > 0 ? opts_.jobs : default_jobs();
}

CompileInfo ArtemisContext::compile(const std::string& source) const {
  CompileInfo info;
  {
    telemetry::Span span("parse", "pipeline");
    info.program = dsl::parse(source);
  }
  info.plan_key = storage::plan_store_key(info.program, opts_.device.name,
                                          autotune::kTunerVersion);
  info.run_key = str_cat(std::hash<std::string>{}(source), "/",
                         opts_.strategy.name, "/", opts_.device.name);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.compiles;
  }
  return info;
}

storage::PlanRecord ArtemisContext::make_plan_record(
    const std::string& plan_key, const ProgramResult& result,
    const gpumodel::DeviceSpec& dev, const Strategy& strategy) {
  ARTEMIS_CHECK_MSG(!result.kernels.empty(),
                    "cannot record a schedule with no kernels");
  storage::PlanRecord rec;
  rec.key = plan_key;
  rec.config = autotune::serialize_config(result.kernels[0].config);
  rec.time_s = result.time_s;
  rec.tflops = result.tflops;
  rec.meta["device"] = dev.name;
  rec.meta["strategy"] = strategy.name;
  rec.meta["tuner_version"] = std::to_string(autotune::kTunerVersion);
  return rec;
}

std::optional<storage::PlanRecord> ArtemisContext::stored_plan(
    const std::string& plan_key) {
  if (!store_.has_value()) return std::nullopt;
  auto hit = store_->get(plan_key);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    if (hit.has_value()) {
      ++stats_.store_hits;
    }
  }
  return hit;
}

TuneOutcome ArtemisContext::tune(const std::string& source,
                                 const TuneRequest& req) {
  TuneOutcome out;
  out.compile = compile(source);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tunes;
  }

  // Consult the durable store first: a hit either answers the request
  // outright (daemon read path) or is reported alongside a fresh tune
  // (one-shot CLI path).
  if (store_.has_value()) {
    if (auto hit = stored_plan(out.compile.plan_key)) {
      out.store_hit = true;
      out.stored = *hit;
      if (req.reuse_stored_plan) {
        out.served_from_store = true;
        out.record = std::move(*hit);
        out.plan_bytes = storage::encode_plan_record(out.record);
        const std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.store_serves;
        return out;
      }
    }
  }

  // Per-tune strategy copy: the journal pointer below is request-local,
  // so concurrent tunes never share mutable state.
  Strategy strat = opts_.strategy;

  // Crash-safe evaluation journal, scoped to this request.
  robust::TuningJournal journal(*vfs_);
  if (!req.journal_path.empty()) {
    out.journal_load =
        journal.open(req.journal_path, out.compile.run_key, req.resume);
    if (out.journal_load.status ==
        robust::JournalLoadResult::Status::IoError) {
      throw Error(str_cat("cannot open journal '", req.journal_path,
                          "': ", out.journal_load.message));
    }
    telemetry::counter_add(
        "journal.replayed",
        static_cast<std::int64_t>(out.journal_load.replayed));
    strat.tune.journal = &journal;
  }

  out.result = optimize_program(out.compile.program, opts_.device,
                                opts_.params, strat);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tuner_runs;
  }
  out.journal_active = journal.active();
  out.journal_recorded = journal.recorded();
  out.journal_replayed = journal.replay_size();

  if (!out.result.kernels.empty()) {
    out.record = make_plan_record(out.compile.plan_key, out.result,
                                  opts_.device, strat);
    out.plan_bytes = storage::encode_plan_record(out.record);
    if (store_.has_value()) {
      out.store_put = store_->put(out.record)
                          ? TuneOutcome::StorePut::Ok
                          : TuneOutcome::StorePut::Failed;
    }
  }
  return out;
}

RunOutcome ArtemisContext::run(const std::string& source) {
  RunOutcome out;
  out.compile = compile(source);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.runs;
  }
  const ir::Program& prog = out.compile.program;
  sim::GridSet ref = sim::GridSet::from_program(prog, 1);
  sim::GridSet tiled = ref.clone();
  sim::run_program_reference(prog, ref);
  codegen::KernelConfig cfg;
  cfg.block = {8, 8, 4};
  codegen::BuildOptions opts;
  opts.use_shared_memory = false;
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Swap) {
      tiled.swap(step.swap.a, step.swap.b);
      continue;
    }
    const auto plan = codegen::build_plan(prog, {step.stencil}, cfg,
                                          opts_.device, opts);
    sim::execute_plan(plan, tiled);
  }
  for (const auto& name : prog.copyout) {
    RunCheck check;
    check.array = name;
    check.max_abs_diff =
        Grid3D::max_abs_diff(ref.grid(name), tiled.grid(name));
    for (const double v : tiled.grid(name).raw()) check.checksum += v;
    out.checks.push_back(std::move(check));
  }
  return out;
}

ContextStats ArtemisContext::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace artemis::driver
