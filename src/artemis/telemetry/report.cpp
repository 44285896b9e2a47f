#include "artemis/telemetry/report.hpp"

#include <cstring>

#include "artemis/autotune/search.hpp"
#include "artemis/gpumodel/occupancy.hpp"

namespace artemis::telemetry {

namespace {

Json triple(const std::array<int, 3>& a) {
  Json arr = Json::array();
  for (const int v : a) arr.push_back(v);
  return arr;
}

Json event_json(const Event& ev) {
  Json rec = Json::object();
  rec.set("ts_ms", static_cast<double>(ev.ts_ns) / 1e6);
  for (const auto& a : ev.args) rec.set(a.key, a.value);
  return rec;
}

/// All instant events with a given name, in time order.
Json events_named(const std::vector<Event>& events, const char* name) {
  Json arr = Json::array();
  for (const Event& ev : events) {
    if (std::strcmp(ev.name, name) == 0) arr.push_back(event_json(ev));
  }
  return arr;
}

}  // namespace

Json config_json(const codegen::KernelConfig& cfg) {
  Json j = Json::object();
  j.set("block", triple(cfg.block));
  j.set("unroll", triple(cfg.unroll));
  j.set("tiling", codegen::tiling_name(cfg.tiling));
  j.set("stream_axis", cfg.stream_axis);
  j.set("stream_chunk", cfg.stream_chunk);
  j.set("perspective", codegen::perspective_name(cfg.perspective));
  j.set("unroll_strategy",
        codegen::unroll_strategy_name(cfg.unroll_strategy));
  j.set("prefetch", cfg.prefetch);
  j.set("retime", cfg.retime);
  j.set("fold", cfg.fold);
  j.set("max_registers", cfg.max_registers);
  j.set("time_tile", cfg.time_tile);
  if (cfg.target_occupancy) j.set("target_occupancy", *cfg.target_occupancy);
  // The serialize_config single-line form, for grep/diff convenience.
  j.set("line", autotune::serialize_config(cfg));
  return j;
}

Json build_run_report(const ReportMeta& meta,
                      const driver::ProgramResult& result,
                      const std::vector<Event>& events,
                      const std::map<std::string, std::int64_t>& counters) {
  Json report = Json::object();
  report.set("report_version", kReportVersion);
  report.set("source", meta.source);
  report.set("strategy",
             meta.strategy.empty() ? result.strategy : meta.strategy);
  report.set("device", meta.device);

  // The chosen schedule.
  Json schedule = Json::object();
  schedule.set("time_ms", result.time_s * 1e3);
  schedule.set("tflops", result.tflops);
  schedule.set("useful_flops", result.useful_flops);
  schedule.set("kernel_launches", result.kernel_launches);
  Json kernels = Json::array();
  for (const auto& k : result.kernels) {
    Json kj = Json::object();
    kj.set("name", k.name);
    kj.set("invocations", k.invocations);
    kj.set("time_ms_per_invocation", k.eval.time_s * 1e3);
    kj.set("time_ms_total", k.time_s() * 1e3);
    kj.set("occupancy", k.eval.occupancy.fraction);
    kj.set("occupancy_limiter",
           gpumodel::limiter_name(k.eval.occupancy.limiter));
    kj.set("bound", gpumodel::bound_name(k.eval.bound));
    kj.set("registers_per_thread", k.eval.regs.total);
    kj.set("config", config_json(k.config));
    kernels.push_back(std::move(kj));
  }
  schedule.set("kernels", std::move(kernels));
  report.set("schedule", std::move(schedule));

  Json fusion = Json::array();
  for (const int x : result.fusion_schedule) fusion.push_back(x);
  report.set("fusion_schedule", std::move(fusion));

  Json hints = Json::array();
  for (const auto& h : result.hints) hints.push_back(h);
  report.set("hints", std::move(hints));

  if (result.deep_tuning) {
    Json deep = Json::object();
    deep.set("tipping_point", result.deep_tuning->tipping_point);
    Json entries = Json::array();
    for (const auto& e : result.deep_tuning->entries) {
      Json ej = Json::object();
      ej.set("time_tile", e.time_tile);
      ej.set("time_ms", e.time_s * 1e3);
      ej.set("time_ms_per_step", e.time_s / e.time_tile * 1e3);
      ej.set("tflops", e.tflops);
      ej.set("configs_evaluated", e.tuned.total_evaluated());
      entries.push_back(std::move(ej));
    }
    deep.set("entries", std::move(entries));
    report.set("deep_tuning", std::move(deep));
  }

  // Tuner counters + per-candidate records, straight from telemetry. The
  // invariants downstream tooling may rely on: enumerated == evaluated +
  // infeasible (every enumerated configuration is either evaluated on the
  // model or rejected as infeasible), with pruned_spill_budgets counting
  // the register-budget escalation steps skipped on top, and
  // space.enumerated == enumerated (every configuration a sweep enumerates
  // is committed once, journal replays included).
  Json tuner = Json::object();
  const auto counter = [&](const char* name) -> std::int64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  tuner.set("enumerated", counter("tuner.enumerated"));
  tuner.set("evaluated", counter("tuner.evaluated"));
  tuner.set("infeasible", counter("tuner.infeasible"));
  tuner.set("pruned_spill_budgets", counter("tuner.pruned_spill_budgets"));
  tuner.set("journal_hits", counter("tuner.journal_hits"));
  tuner.set("candidates", events_named(events, "tuner.candidate"));
  // Search observability: leaderboard-front changes (serial commit order,
  // so identical at any jobs value) and search-space coverage — what each
  // sweep enumerated against the unpruned cross product of its knob axes.
  tuner.set("leaderboard_changes", counter("tuner.leaderboard_changes"));
  tuner.set("leaderboard_events", events_named(events, "tuner.leaderboard"));
  Json space = Json::object();
  const std::int64_t space_enumerated = counter("tuner.space_enumerated");
  const std::int64_t space_unpruned = counter("tuner.space_unpruned");
  space.set("enumerated", space_enumerated);
  space.set("unpruned", space_unpruned);
  // Journal replays are accounted separately from enumeration, so a
  // resumed run's coverage fraction cannot exceed 1.
  space.set("replayed", counter("tuner.space_replayed"));
  space.set("coverage",
            space_unpruned > 0 ? static_cast<double>(space_enumerated) /
                                     static_cast<double>(space_unpruned)
                               : 1.0);
  space.set("sweeps", events_named(events, "tuner.space"));
  tuner.set("space", std::move(space));
  report.set("tuner", std::move(tuner));

  // Resilience accounting (docs/ROBUSTNESS.md): what fault injection,
  // retries, quarantine, and the tuning journal did during this run.
  // Crashed / timed-out / quarantined candidates are already
  // inside tuner.infeasible above; these break the losses down.
  Json resilience = Json::object();
  resilience.set("eval_crashes", counter("tuner.eval_crashes"));
  resilience.set("eval_timeouts", counter("tuner.eval_timeouts"));
  resilience.set("eval_retries", counter("tuner.eval_retries"));
  resilience.set("quarantined", counter("tuner.quarantined"));
  resilience.set("quarantine_skips", counter("tuner.quarantine_skips"));
  resilience.set("degraded", counter("tuner.degraded"));
  resilience.set("journal_records", counter("journal.records"));
  resilience.set("journal_replayed", counter("journal.replayed"));
  resilience.set("journal_parse_errors", counter("journal.parse_errors"));
  resilience.set("journal_write_errors", counter("journal.write_errors"));
  resilience.set("dropped_candidates",
                 counter("driver.dropped_candidates"));
  resilience.set("dropped", events_named(events, "driver.candidate_dropped"));
  report.set("resilience", std::move(resilience));

  // Durable plan store accounting (docs/ROBUSTNESS.md, --store): cache
  // traffic, crash recovery, and the integrity classification of every
  // record the store refused to serve.
  Json storage = Json::object();
  storage.set("hits", counter("plan_store.hits"));
  storage.set("misses", counter("plan_store.misses"));
  storage.set("puts", counter("plan_store.puts"));
  storage.set("put_failures", counter("plan_store.put_failures"));
  storage.set("io_errors", counter("plan_store.io_errors"));
  storage.set("recovered_tmp", counter("plan_store.recovered_tmp"));
  storage.set("quarantined", counter("plan_store.quarantined"));
  Json store_drops = Json::object();
  store_drops.set("torn", counter("plan_store.drop.torn"));
  store_drops.set("crc_mismatch", counter("plan_store.drop.crc_mismatch"));
  store_drops.set("version_skew", counter("plan_store.drop.version_skew"));
  store_drops.set("malformed", counter("plan_store.drop.malformed"));
  storage.set("drops", std::move(store_drops));
  storage.set("stale_locks_reclaimed",
              counter("plan_store.stale_locks_reclaimed"));
  storage.set("compactions", counter("plan_store.compactions"));
  report.set("storage", std::move(storage));

  // Parallel accounting: the --jobs value the run was driven with and
  // what the simulator's work-stealing pools did (the tuner runs its
  // sweeps serially). They exist to watch utilization, not correctness.
  Json parallel = Json::object();
  parallel.set("jobs", meta.jobs);
  parallel.set("pools", counter("parallel.pools"));
  parallel.set("tasks", counter("parallel.tasks"));
  parallel.set("steals", counter("parallel.steals"));
  report.set("parallel", std::move(parallel));

  // Native engine accounting: how many stages ran on the SIMD tier vs
  // fell back to bytecode (--metrics measures on the native engine).
  Json sim = Json::object();
  sim.set("native_stages", counter("sim.native_stages"));
  sim.set("native_fallbacks", counter("sim.native_fallbacks"));
  report.set("sim", std::move(sim));

  report.set("profile", events_named(events, "profile.verdict"));

  // Pipeline phase durations (top-level spans), for trajectory tracking.
  Json phases = Json::array();
  for (const Event& ev : events) {
    if (ev.phase != Event::Phase::Complete) continue;
    if (std::strcmp(ev.cat, "pipeline") != 0) continue;
    Json pj = Json::object();
    pj.set("name", ev.name);
    pj.set("ts_ms", static_cast<double>(ev.ts_ns) / 1e6);
    pj.set("dur_ms", static_cast<double>(ev.dur_ns) / 1e6);
    for (const auto& a : ev.args) pj.set(a.key, a.value);
    phases.push_back(std::move(pj));
  }
  report.set("phases", std::move(phases));

  return report;
}

}  // namespace artemis::telemetry
