#include "artemis/autotune/search.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "artemis/common/check.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/telemetry/telemetry.hpp"

namespace artemis::autotune {

namespace {

/// serialize_config's tiling spelling, shorter than codegen::tiling_name.
/// Journal keys and stored plan records carry it, so it must not change.
const char* tiling_key(codegen::TilingScheme t) {
  switch (t) {
    case codegen::TilingScheme::Spatial3D: return "spatial";
    case codegen::TilingScheme::StreamSerial: return "stream";
    case codegen::TilingScheme::StreamConcurrent: return "stream-conc";
  }
  return "?";
}

}  // namespace

std::string serialize_config(const codegen::KernelConfig& cfg) {
  std::ostringstream os;
  os << "block=" << cfg.block[0] << "," << cfg.block[1] << "," << cfg.block[2]
     << " unroll=" << cfg.unroll[0] << "," << cfg.unroll[1] << ","
     << cfg.unroll[2] << " tiling=" << tiling_key(cfg.tiling)
     << " axis=" << cfg.stream_axis << " chunk=" << cfg.stream_chunk
     << " persp=" << codegen::perspective_name(cfg.perspective)
     << " dist=" << codegen::unroll_strategy_name(cfg.unroll_strategy)
     << " prefetch=" << (cfg.prefetch ? 1 : 0)
     << " retime=" << (cfg.retime ? 1 : 0) << " fold=" << (cfg.fold ? 1 : 0)
     << " maxreg=" << cfg.max_registers << " timetile=" << cfg.time_tile;
  if (cfg.target_occupancy) os << " occ=" << *cfg.target_occupancy;
  return os.str();
}

namespace {

using codegen::KernelConfig;
using codegen::KernelPlan;
using codegen::Perspective;
using codegen::TilingScheme;

Json int_triple(const std::array<int, 3>& a) {
  Json arr = Json::array();
  for (const int v : a) arr.push_back(v);
  return arr;
}

/// One structured telemetry event per considered candidate (Section V
/// observability): the knob values, the outcome, and how many register
/// budgets the escalation pruned before evaluation. `reason` is empty for
/// evaluated candidates; `replayed` marks journal replays.
void record_candidate(const char* stage, const KernelConfig& cfg,
                      int spill_pruned, const Candidate* cand,
                      const char* reason, bool replayed = false) {
  if (!telemetry::enabled()) return;
  std::vector<telemetry::Attr> args;
  args.push_back({"stage", Json(stage)});
  args.push_back({"tiling", Json(codegen::tiling_name(cfg.tiling))});
  args.push_back({"block", int_triple(cfg.block)});
  args.push_back({"unroll", int_triple(cfg.unroll)});
  args.push_back({"max_registers", Json(cfg.max_registers)});
  args.push_back({"prefetch", Json(cfg.prefetch)});
  args.push_back(
      {"perspective", Json(codegen::perspective_name(cfg.perspective))});
  if (spill_pruned > 0) {
    args.push_back({"spill_pruned_budgets", Json(spill_pruned)});
  }
  if (cand != nullptr) {
    args.push_back({"outcome", Json("evaluated")});
    args.push_back({"time_ms", Json(cand->time_s * 1e3)});
    args.push_back({"occupancy", Json(cand->eval.occupancy.fraction)});
    args.push_back({"registers", Json(cand->eval.regs.total)});
  } else {
    args.push_back({"outcome", Json("infeasible")});
    args.push_back({"reason", Json(reason)});
  }
  if (replayed) args.push_back({"replayed", Json(true)});
  telemetry::instant("tuner.candidate", "tune", std::move(args));
}

/// Shared state of one tuning search: the evaluation inputs plus the
/// resilience machinery (runner, journal) that every candidate flows
/// through.
struct EvalContext {
  const PlanFactory& factory;
  const gpumodel::DeviceSpec& dev;
  const gpumodel::ModelParams& params;
  const TuneOptions& opts;
  robust::CandidateRunner runner;
  TuneResult* result;

  EvalContext(const PlanFactory& f, const gpumodel::DeviceSpec& d,
              const gpumodel::ModelParams& p, const TuneOptions& o,
              TuneResult* r)
      : factory(f), dev(d), params(p), opts(o), result(r) {}

  std::string candidate_key(const KernelConfig& cfg) const {
    return opts.journal_scope.empty()
               ? serialize_config(cfg)
               : str_cat(opts.journal_scope, "|", serialize_config(cfg));
  }

  /// Candidate keys (config serialization) are only materialized when
  /// something consumes them — the journal or the fault harness — so the
  /// disabled path never pays for string building.
  bool needs_key() const {
    return opts.journal != nullptr || robust::fault_injection_enabled();
  }
};

/// What the measurement half of one candidate evaluation produced. The
/// commit half (commit_candidate) turns it into telemetry counters,
/// journal records, and leaderboard entries, in enumeration order.
struct EvalOutcome {
  std::string key;  ///< journal/quarantine key ("" when nothing needs it)
  bool replayed = false;                        ///< journal replay hit
  std::optional<robust::JournalRecord> replay;  ///< the replayed record
  robust::RunOutcome outcome;  ///< live measurement (replayed == false)
  std::optional<Candidate> candidate;  ///< success, either path
};

/// Register-budget escalation (Section V): configure `cfg` into `plan`
/// once, then settle on the smallest budget, in escalation order, at
/// which the register estimate does not spill, counting the budgets
/// passed over into `skipped`; the largest budget when all spill. Neither
/// the plan nor its estimate reads max_registers (autotune_test pins
/// this), so one build and one estimate serve every budget. `cfg` and the
/// plan leave with the settled budget; an infeasible config (false) keeps
/// the largest, as escalation always left it.
bool build_settled(const PlanFactory& factory, KernelConfig& cfg,
                   const std::vector<int>& budgets, KernelPlan& plan,
                   int& skipped) {
  cfg.max_registers = budgets.front();
  if (!factory(cfg, plan)) {
    cfg.max_registers = budgets.back();
    return false;
  }
  const int regs = gpumodel::estimate_registers(plan).total;
  cfg.max_registers = budgets.back();
  for (const int budget : budgets) {
    if (regs <= budget) {
      cfg.max_registers = budget;
      break;
    }
    ++skipped;
  }
  plan.config.max_registers = cfg.max_registers;
  return true;
}

/// The measurement half of try-one-configuration: journal lookup (the
/// replay map is immutable during a run) and the measurement of `plan`,
/// the candidate's build (null when it is infeasible), through the
/// resilient runner. No telemetry counters, no journal writes, no
/// TuneResult mutation — commit_candidate does those.
EvalOutcome evaluate_candidate(EvalContext& ctx, const KernelConfig& cfg,
                               const KernelPlan* plan) {
  EvalOutcome eo;
  if (ctx.needs_key()) eo.key = ctx.candidate_key(cfg);
  // The model's evaluation of `cfg`; nullopt when it is infeasible.
  const auto evaluate = [&]() -> std::optional<gpumodel::KernelEval> {
    if (plan == nullptr) return std::nullopt;
    return gpumodel::evaluate(*plan, ctx.dev, ctx.params);
  };

  // Replay: a resumed journal already holds this candidate's outcome, so
  // the (expensive, possibly faulty) measurement is skipped. The cheap
  // analytic evaluation is re-derived for the leaderboard metadata; the
  // journaled timing stays authoritative.
  if (ctx.opts.journal != nullptr) {
    if (const auto rec = ctx.opts.journal->lookup(eo.key)) {
      eo.replayed = true;
      eo.replay = rec;
      if (rec->status == "ok") {
        std::optional<gpumodel::KernelEval> ev = evaluate();
        if (ev && ev->valid) {
          Candidate c;
          c.config = cfg;
          c.time_s = rec->time_s;
          c.eval = std::move(*ev);
          eo.candidate = std::move(c);
        }
      }
      return eo;
    }
  }

  eo.outcome = ctx.runner.run("tuner.eval", eo.key, evaluate);
  if (eo.outcome.status == robust::RunStatus::Ok && eo.outcome.eval.valid) {
    Candidate c;
    c.config = cfg;
    c.time_s = eo.outcome.eval.time_s;
    c.eval = eo.outcome.eval;
    eo.candidate = std::move(c);
  }
  return eo;
}

/// The commit half: fold one evaluation outcome into the counters, the
/// journal, and the result bookkeeping. Returns nullopt for infeasible
/// candidates. Every call counts one enumerated candidate, and
/// evaluated + infeasible partition the enumerated set (candidates lost
/// to crashes/timeouts/quarantine after retries count as infeasible,
/// with the failure class as the recorded reason). `stage` labels the
/// sweep ("stage1", "stage2", "exhaustive", "random"); `spill_pruned` is
/// how many register budgets escalation skipped for this candidate.
std::optional<Candidate> commit_candidate(EvalContext& ctx,
                                          const KernelConfig& cfg,
                                          EvalOutcome& eo, const char* stage,
                                          int spill_pruned = 0) {
  telemetry::counter_add("tuner.enumerated");
  const auto fail = [&](const char* reason, bool replayed = false) {
    telemetry::counter_add("tuner.infeasible");
    record_candidate(stage, cfg, spill_pruned, nullptr, reason, replayed);
  };

  if (eo.replayed) {
    ++ctx.result->journal_hits;
    telemetry::counter_add("tuner.journal_hits");
    // Replays are counted separately from the sweep's enumeration so the
    // report's space-coverage fraction cannot double-count a resumed
    // run's candidates (coverage stays <= 1 across --resume).
    telemetry::counter_add("tuner.space_replayed");
    if (eo.candidate) {
      telemetry::counter_add("tuner.evaluated");
      record_candidate(stage, cfg, spill_pruned, &*eo.candidate, "",
                       /*replayed=*/true);
      return std::move(eo.candidate);
    }
    fail(eo.replay->status == "ok" ? "journal_replay_invalid"
                                   : eo.replay->status.c_str(),
         /*replayed=*/true);
    return std::nullopt;
  }

  const robust::RunOutcome& outcome = eo.outcome;
  if (outcome.retries > 0) {
    telemetry::counter_add("tuner.eval_retries", outcome.retries);
  }
  if (outcome.quarantined_now) {
    // TuneResult::quarantined is settled from the runner at the end of
    // the search; here only the process-wide counter and event fire.
    telemetry::counter_add("tuner.quarantined");
    if (telemetry::enabled()) {
      telemetry::instant("tuner.quarantine", "tune",
                         {{"key", Json(eo.key)},
                          {"reason", Json(outcome.reason)}});
    }
  }

  robust::TuningJournal* journal = ctx.opts.journal;
  const auto journal_record = [&](const char* status, double time_s,
                                  double tflops) {
    if (journal != nullptr) journal->record(eo.key, status, time_s, tflops);
  };

  switch (outcome.status) {
    case robust::RunStatus::Ok: {
      if (!eo.candidate) {
        journal_record("infeasible", 0, 0);
        fail("invalid_launch");
        return std::nullopt;
      }
      // Write-ahead: journal the measurement before it is consumed.
      journal_record("ok", eo.candidate->time_s,
                     eo.candidate->eval.tflops());
      telemetry::counter_add("tuner.evaluated");
      record_candidate(stage, cfg, spill_pruned, &*eo.candidate, "");
      return std::move(eo.candidate);
    }
    case robust::RunStatus::Infeasible:
      journal_record("infeasible", 0, 0);
      fail("plan_error");
      return std::nullopt;
    case robust::RunStatus::Crash:
      ++ctx.result->crashed;
      telemetry::counter_add("tuner.eval_crashes");
      journal_record("crash", 0, 0);
      fail("eval_crash");
      return std::nullopt;
    case robust::RunStatus::Timeout:
      ++ctx.result->timed_out;
      telemetry::counter_add("tuner.eval_timeouts");
      journal_record("timeout", 0, 0);
      fail("eval_timeout");
      return std::nullopt;
    case robust::RunStatus::Quarantined:
      telemetry::counter_add("tuner.quarantine_skips");
      fail("quarantined");
      return std::nullopt;
  }
  fail("unknown");
  return std::nullopt;
}

/// Graceful degradation: when the whole search came up empty (everything
/// infeasible, crashed, or quarantined), fall back to the baseline seed
/// configuration — evaluated directly, outside the fault/retry path — and
/// emit a telemetry warning instead of aborting the pipeline. Returns
/// nullopt when even the baseline cannot run.
std::optional<Candidate> degrade_to_seed(EvalContext& ctx,
                                         const KernelConfig& seed) {
  KernelPlan plan;
  if (!ctx.factory(seed, plan)) return std::nullopt;
  gpumodel::KernelEval ev = gpumodel::evaluate(plan, ctx.dev, ctx.params);
  if (!ev.valid) return std::nullopt;
  Candidate c;
  c.config = seed;
  c.time_s = ev.time_s;
  c.eval = std::move(ev);
  ctx.result->degraded = true;
  telemetry::counter_add("tuner.degraded");
  if (telemetry::enabled()) {
    telemetry::instant(
        "tuner.degraded", "tune",
        {{"reason",
          Json("search found no feasible configuration; degrading to "
               "the baseline config")},
         {"config", Json(serialize_config(seed))}});
  }
  return c;
}

/// The search's top_k candidates, best first. Each entry keeps its
/// canonical config key (serialize_config), computed once when the entry
/// is committed: dedup and the tie-break on equal times compare stored
/// keys instead of serializing the board again on every insert.
class Leaderboard {
 public:
  explicit Leaderboard(int top_k) : top_k_(top_k) {}

  /// The entries, best first.
  std::vector<Candidate> candidates() const {
    std::vector<Candidate> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.cand);
    return out;
  }

  void insert(Candidate c) {
    // A full board drops a candidate strictly slower than its last entry
    // whatever its key: a duplicate would keep its faster slot, and a new
    // config would sort last and be cut. Return before serializing it.
    // (A negative top_k never fills the board.)
    if (!entries_.empty() &&
        entries_.size() >= static_cast<std::size_t>(top_k_) &&
        c.time_s > entries_.back().cand.time_s) {
      return;
    }
    const bool had_best = !entries_.empty();
    const double prev_best_s = had_best ? entries_.front().cand.time_s : 0;
    const std::string prev_best_key = had_best && telemetry::enabled()
                                          ? entries_.front().key
                                          : std::string();
    // A config never holds two slots: the random sweep and stage-2
    // variant generation can enumerate the same config twice. The faster
    // measurement keeps the one slot (the model is deterministic, so the
    // first); the rest of the board stays available for distinct configs
    // instead of a duplicate pushing them past the top_k cut.
    std::string key = serialize_config(c.config);
    const auto dup = std::find_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return e.key == key; });
    if (dup != entries_.end()) {
      if (c.time_s >= dup->cand.time_s) return;  // existing at least as good
      dup->cand = std::move(c);
    } else {
      entries_.push_back({std::move(key), std::move(c)});
    }
    // Ties on time are broken by the canonical config serialization: a
    // total order, so the board never depends on insertion history, even
    // among equal-cost candidates.
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.cand.time_s != b.cand.time_s) {
                  return a.cand.time_s < b.cand.time_s;
                }
                return a.key < b.key;
              });
    if (entries_.size() > static_cast<std::size_t>(top_k_)) {
      entries_.resize(static_cast<std::size_t>(top_k_));
    }
    // Leaderboard-change events ride the commit path, in enumeration
    // order (search observability). A top_k of 0 keeps the board empty.
    if (telemetry::enabled() && !entries_.empty()) {
      const Entry& best = entries_.front();
      if (!had_best || best.key != prev_best_key) {
        telemetry::counter_add("tuner.leaderboard_changes");
        std::vector<telemetry::Attr> args;
        args.push_back({"config", Json(best.key)});
        args.push_back({"time_ms", Json(best.cand.time_s * 1e3)});
        if (had_best) {
          args.push_back({"previous_best_ms", Json(prev_best_s * 1e3)});
        }
        args.push_back(
            {"board_size", Json(static_cast<std::int64_t>(entries_.size()))});
        telemetry::instant("tuner.leaderboard", "tune", std::move(args));
      }
    }
  }

 private:
  struct Entry {
    std::string key;
    Candidate cand;
  };
  int top_k_;
  std::vector<Entry> entries_;
};

/// Drive one sweep: configure and evaluate `raw` configurations in
/// enumeration order (optionally settling each one's register budget
/// first) and commit each one (counters, journal, leaderboard) before the
/// next. One plan serves the whole sweep: every candidate is configured
/// into it in place, so a candidate copies no stage list. Committing
/// candidate by candidate keeps the write-ahead journal growing
/// incrementally, so a run killed mid-sweep still resumes from everything
/// committed so far.
///
/// Sweeps run on the calling thread at any TuneOptions::jobs: spread over
/// a pool, the same sweep cost more CPU and no less wall time
/// (docs/PERFORMANCE.md, "Tuner hot path").
void run_candidates(EvalContext& ctx, const char* stage,
                    std::vector<KernelConfig> raw, bool escalate_budget,
                    int& evaluated_counter, Leaderboard& board) {
  KernelPlan plan;
  for (KernelConfig& cfg : raw) {
    int spill_pruned = 0;
    bool feasible;
    if (escalate_budget) {
      feasible = build_settled(ctx.factory, cfg, ctx.opts.register_budgets,
                               plan, spill_pruned);
      if (spill_pruned > 0) {
        telemetry::counter_add("tuner.pruned_spill_budgets", spill_pruned);
      }
    } else {
      feasible = ctx.factory(cfg, plan);
    }
    EvalOutcome eo = evaluate_candidate(ctx, cfg, feasible ? &plan : nullptr);
    ctx.result->skipped_spilling += spill_pruned;
    ++evaluated_counter;
    auto cand = commit_candidate(ctx, cfg, eo, stage, spill_pruned);
    if (!cand) {
      ++ctx.result->infeasible;
      continue;
    }
    board.insert(std::move(*cand));
  }
}

/// The seed plan's dimensionality, or 3 when the seed is infeasible: the
/// sweep then discovers feasibility.
int seed_dims(const PlanFactory& factory, const KernelConfig& seed) {
  KernelPlan plan;
  return factory(seed, plan) ? plan.dims : 3;
}

/// Close a search into ctx.result: the board best first, or the degraded
/// seed when the board is empty. Throws PlanError(`empty_what`) when even
/// the seed cannot run.
void finish_search(EvalContext& ctx, const KernelConfig& seed,
                   const Leaderboard& board, const char* empty_what) {
  TuneResult& result = *ctx.result;
  result.leaderboard = board.candidates();
  if (result.leaderboard.empty()) {
    std::optional<Candidate> fallback = degrade_to_seed(ctx, seed);
    if (!fallback) throw PlanError(empty_what);
    result.leaderboard.push_back(std::move(*fallback));
  }
  result.quarantined = ctx.runner.quarantined_count();
  result.best = result.leaderboard.front();
}

/// Count the powers of two in [lo, hi] — the side length of one axis of
/// the unpruned search space.
std::int64_t pow2_count(int lo, int hi) {
  std::int64_t n = 0;
  for (int s = lo; s <= hi; s *= 2) ++n;
  return n;
}

std::int64_t ipow(std::int64_t base, int exp) {
  std::int64_t r = 1;
  for (int i = 0; i < exp; ++i) r *= base;
  return r;
}

/// Search-space coverage observability: how many configurations a sweep
/// actually enumerated against the unpruned cross product of its knob
/// axes. The ratio is the tuner's pruning effectiveness; the counters
/// feed the run report's tuner section and `--metrics`.
void record_space_coverage(const char* stage, std::int64_t enumerated,
                           std::int64_t unpruned) {
  if (!telemetry::enabled()) return;
  telemetry::counter_add("tuner.space_enumerated", enumerated);
  telemetry::counter_add("tuner.space_unpruned", unpruned);
  telemetry::instant("tuner.space", "tune",
                     {{"stage", Json(std::string(stage))},
                      {"enumerated", Json(enumerated)},
                      {"unpruned", Json(unpruned)}});
}

}  // namespace

PlanFactory::PlanFactory(const codegen::StageTemplate& tmpl,
                         const gpumodel::DeviceSpec& dev)
    : configure_([&tmpl, dev](const KernelConfig& cfg, KernelPlan& plan) {
        try {
          return codegen::try_configure(tmpl, cfg, dev, plan);
        } catch (const PlanError&) {
          // The template's captured config-independent failure: every
          // candidate is infeasible, as for a callable that throws.
          return false;
        }
      }) {}

std::vector<std::array<int, 3>> candidate_blocks(int dims, bool streaming,
                                                 const TuneOptions& opts) {
  std::vector<int> sizes;
  for (int s = opts.min_block; s <= opts.max_block; s *= 2) sizes.push_back(s);

  std::vector<std::array<int, 3>> out;
  const int tiled_dims = streaming ? dims - 1 : dims;
  for (const int bx : sizes) {
    if (tiled_dims == 1) {
      if (bx <= 1024) out.push_back({bx, 1, 1});
      continue;
    }
    for (const int by : sizes) {
      if (tiled_dims == 2) {
        if (static_cast<std::int64_t>(bx) * by <= 1024) {
          out.push_back({bx, by, 1});
        }
        continue;
      }
      for (const int bz : sizes) {
        if (static_cast<std::int64_t>(bx) * by * bz <= 1024) {
          out.push_back({bx, by, bz});
        }
      }
    }
  }
  return out;
}

std::vector<std::array<int, 3>> candidate_unrolls(int dims,
                                                  const TuneOptions& opts) {
  const int cap = opts.disable_unroll
                      ? 1
                      : (opts.theoretically_bandwidth_bound
                             ? opts.max_unroll_bandwidth
                             : opts.max_unroll_compute);
  std::vector<int> factors;
  for (int f = 1; f <= cap; f *= 2) factors.push_back(f);

  std::vector<std::array<int, 3>> out;
  for (const int ux : factors) {
    for (const int uy : dims >= 2 ? factors : std::vector<int>{1}) {
      for (const int uz : dims >= 3 ? factors : std::vector<int>{1}) {
        if (static_cast<std::int64_t>(ux) * uy * uz <= cap) {
          out.push_back({ux, uy, uz});
        }
      }
    }
  }
  // Section V: explore in monotonically increasing unroll volume, so the
  // register budget can be escalated incrementally.
  std::sort(out.begin(), out.end(),
            [](const std::array<int, 3>& a, const std::array<int, 3>& b) {
              return a[0] * a[1] * a[2] < b[0] * b[1] * b[2];
            });
  return out;
}

TuneResult hierarchical_tune(const PlanFactory& factory,
                             const KernelConfig& seed,
                             const gpumodel::DeviceSpec& dev,
                             const gpumodel::ModelParams& params,
                             const TuneOptions& opts) {
  TuneResult result;
  Leaderboard board(opts.top_k);
  EvalContext ctx(factory, dev, params, opts, &result);

  const int dims = seed_dims(factory, seed);

  std::vector<TilingScheme> tilings = {seed.tiling};
  if (opts.explore_tiling && dims >= 2) {
    tilings = {TilingScheme::Spatial3D, TilingScheme::StreamSerial};
  }

  // ---- stage 1: tiling x block shape x unroll factors ----------------------
  {
    const telemetry::Span stage1_span("tune.stage1", "tune");
    std::vector<KernelConfig> raw;
    for (const TilingScheme tiling : tilings) {
      const bool streaming = tiling != TilingScheme::Spatial3D;
      for (const auto& block : candidate_blocks(dims, streaming, opts)) {
        for (const auto& unroll : candidate_unrolls(dims, opts)) {
          KernelConfig cfg = seed;
          cfg.tiling = tiling;
          if (streaming) cfg.stream_axis = dims - 1;
          cfg.block = block;
          cfg.unroll = unroll;
          if (streaming) {
            cfg.block[static_cast<std::size_t>(cfg.stream_axis)] = 1;
          }
          raw.push_back(cfg);
        }
      }
    }
    const std::int64_t enumerated = static_cast<std::int64_t>(raw.size());
    run_candidates(ctx, "stage1", std::move(raw),
                   /*escalate_budget=*/true, result.evaluated_stage1, board);
    if (telemetry::enabled()) {
      const std::int64_t nsizes = pow2_count(opts.min_block, opts.max_block);
      const int unroll_cap =
          opts.disable_unroll ? 1
                              : (opts.theoretically_bandwidth_bound
                                     ? opts.max_unroll_bandwidth
                                     : opts.max_unroll_compute);
      const std::int64_t nfactors = pow2_count(1, unroll_cap);
      std::int64_t unpruned = 0;
      for (const TilingScheme tiling : tilings) {
        const int tiled_dims =
            tiling != TilingScheme::Spatial3D ? dims - 1 : dims;
        unpruned += ipow(nsizes, tiled_dims) * ipow(nfactors, dims);
      }
      record_space_coverage("stage1", enumerated, unpruned);
    }
  }

  // ---- stage 2: low-impact toggles on the survivors ------------------------
  const telemetry::Span stage2_span("tune.stage2", "tune");
  const std::vector<Candidate> survivors = board.candidates();
  std::vector<KernelConfig> variants;
  for (const auto& s : survivors) {
    const bool streaming = s.config.tiling != TilingScheme::Spatial3D;
    if (opts.tune_prefetch && streaming) {
      KernelConfig v = s.config;
      v.prefetch = true;
      variants.push_back(v);
    }
    if (opts.tune_concurrent_streaming && streaming && dims >= 2) {
      for (const int chunk : {32, 64, 128}) {
        KernelConfig v = s.config;
        v.tiling = TilingScheme::StreamConcurrent;
        v.stream_chunk = chunk;
        variants.push_back(v);
        if (opts.tune_prefetch) {
          v.prefetch = true;
          variants.push_back(v);
        }
      }
    }
    if (opts.tune_perspective) {
      for (const Perspective p : {Perspective::Input, Perspective::Mixed}) {
        KernelConfig v = s.config;
        v.perspective = p;
        variants.push_back(v);
      }
    }
  }
  record_space_coverage("stage2", static_cast<std::int64_t>(variants.size()),
                        static_cast<std::int64_t>(variants.size()));
  run_candidates(ctx, "stage2", std::move(variants),
                 /*escalate_budget=*/false, result.evaluated_stage2, board);

  finish_search(ctx, seed, board, "autotuner found no feasible configuration");
  return result;
}

TuneResult exhaustive_tune(const PlanFactory& factory,
                           const KernelConfig& seed,
                           const gpumodel::DeviceSpec& dev,
                           const gpumodel::ModelParams& params,
                           const TuneOptions& opts) {
  TuneResult result;
  Leaderboard board(opts.top_k);
  EvalContext ctx(factory, dev, params, opts, &result);

  const int dims = seed_dims(factory, seed);

  std::vector<TilingScheme> tilings = {seed.tiling};
  if (opts.explore_tiling && dims >= 2) {
    tilings = {TilingScheme::Spatial3D, TilingScheme::StreamSerial};
  }

  std::vector<KernelConfig> raw;
  for (const TilingScheme tiling : tilings) {
    const bool streaming = tiling != TilingScheme::Spatial3D;
    for (const auto& block : candidate_blocks(dims, streaming, opts)) {
      for (const auto& unroll : candidate_unrolls(dims, opts)) {
        for (const int budget : opts.register_budgets) {
          for (const bool prefetch :
               streaming ? std::vector<bool>{false, true}
                         : std::vector<bool>{false}) {
            for (const Perspective p : {Perspective::Output,
                                        Perspective::Input,
                                        Perspective::Mixed}) {
              KernelConfig cfg = seed;
              cfg.tiling = tiling;
              if (streaming) cfg.stream_axis = dims - 1;
              cfg.block = block;
              cfg.unroll = unroll;
              cfg.max_registers = budget;
              cfg.prefetch = prefetch;
              cfg.perspective = p;
              if (streaming) {
                cfg.block[static_cast<std::size_t>(cfg.stream_axis)] = 1;
              }
              raw.push_back(cfg);
            }
          }
        }
      }
    }
  }
  if (telemetry::enabled()) {
    const std::int64_t nsizes = pow2_count(opts.min_block, opts.max_block);
    const int unroll_cap =
        opts.disable_unroll ? 1
                            : (opts.theoretically_bandwidth_bound
                                   ? opts.max_unroll_bandwidth
                                   : opts.max_unroll_compute);
    const std::int64_t nfactors = pow2_count(1, unroll_cap);
    std::int64_t unpruned = 0;
    for (const TilingScheme tiling : tilings) {
      const int tiled_dims =
          tiling != TilingScheme::Spatial3D ? dims - 1 : dims;
      unpruned += ipow(nsizes, tiled_dims) * ipow(nfactors, dims) *
                  static_cast<std::int64_t>(opts.register_budgets.size()) *
                  2 * 3;  // prefetch x perspective
    }
    record_space_coverage("exhaustive", static_cast<std::int64_t>(raw.size()),
                          unpruned);
  }
  run_candidates(ctx, "exhaustive", std::move(raw),
                 /*escalate_budget=*/false, result.evaluated_stage1, board);

  finish_search(ctx, seed, board, "exhaustive tuner found no feasible configuration");
  return result;
}

TuneResult random_tune(const PlanFactory& factory,
                       const KernelConfig& seed,
                       const gpumodel::DeviceSpec& dev,
                       const gpumodel::ModelParams& params,
                       const TuneOptions& opts, int budget,
                       std::uint64_t rng_seed) {
  TuneResult result;
  Leaderboard board(opts.top_k);
  EvalContext ctx(factory, dev, params, opts, &result);
  Rng rng(rng_seed);

  const int dims = seed_dims(factory, seed);

  auto pow2 = [&rng](int lo_exp, int hi_exp) {
    return 1 << rng.uniform_int(lo_exp, hi_exp);
  };

  // Draw the whole sample first: the RNG stream, and therefore the
  // candidate list, depends on the seed alone.
  std::vector<KernelConfig> raw;
  raw.reserve(static_cast<std::size_t>(std::max(0, budget)));
  for (int i = 0; i < budget; ++i) {
    KernelConfig cfg = seed;
    const bool streaming = dims >= 2 && rng.coin();
    cfg.tiling = streaming ? TilingScheme::StreamSerial
                           : TilingScheme::Spatial3D;
    cfg.stream_axis = dims - 1;
    cfg.block = {pow2(2, 8), dims >= 2 ? pow2(2, 8) : 1,
                 dims >= 3 && !streaming ? pow2(0, 5) : 1};
    if (streaming) cfg.block[static_cast<std::size_t>(dims - 1)] = 1;
    cfg.unroll = {pow2(0, 3), dims >= 2 ? pow2(0, 2) : 1,
                  dims >= 3 ? pow2(0, 2) : 1};
    cfg.max_registers = opts.register_budgets[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<std::int64_t>(
                            opts.register_budgets.size()) -
                            1))];
    cfg.prefetch = streaming && rng.coin();
    cfg.perspective = static_cast<Perspective>(rng.uniform_int(0, 2));
    cfg.unroll_strategy = rng.coin() ? codegen::UnrollStrategy::Blocked
                                     : codegen::UnrollStrategy::Cyclic;
    raw.push_back(cfg);
  }
  record_space_coverage("random", static_cast<std::int64_t>(raw.size()),
                        static_cast<std::int64_t>(std::max(0, budget)));
  run_candidates(ctx, "random", std::move(raw),
                 /*escalate_budget=*/false, result.evaluated_stage1, board);
  finish_search(ctx, seed, board, "random tuner found no feasible configuration");
  return result;
}

}  // namespace artemis::autotune
