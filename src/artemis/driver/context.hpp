#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "artemis/driver/driver.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/storage/plan_store.hpp"
#include "artemis/storage/vfs.hpp"

namespace artemis::driver {

/// Everything one ArtemisContext binds at construction. A context is the
/// reentrant form of the artemisc pipeline: two contexts with different
/// devices, strategies and stores can run tune() concurrently on separate
/// threads and produce exactly the plans sequential runs would.
struct ContextOptions {
  gpumodel::DeviceSpec device = gpumodel::p100();
  gpumodel::ModelParams params;
  Strategy strategy = artemis_strategy();
  /// The parallelism the context reports (run report `parallel.jobs`,
  /// service stats `jobs`); 0 = the process default. The tuner runs its
  /// sweeps serially at any value, and the simulator sizes its pools from
  /// the process default (set_default_jobs).
  int jobs = 0;
  /// Filesystem every durable artifact (store, journal) writes through.
  /// nullptr = the real filesystem.
  storage::Vfs* vfs = nullptr;
  /// Root of a durable content-addressed plan store; "" = none.
  std::string store_root;
};

/// Resolve a device-family name ("k40", "p100", "v100", "a100", "h100")
/// to its spec; throws artemis::Error on an unknown name.
gpumodel::DeviceSpec device_by_name(const std::string& name);

/// Resolve a strategy preset name ("artemis", "ppcg", "stencilgen",
/// "global", "global-stream"); throws artemis::Error on an unknown name.
Strategy strategy_by_name(const std::string& name);

/// A parsed program plus the two keys the pipeline files it under: the
/// content-addressed plan-store key (canonical IR + device + tuner
/// version) and the source-exact run key that scopes the tuning journal.
struct CompileInfo {
  ir::Program program;
  std::string plan_key;  ///< storage::plan_store_key(...)
  std::string run_key;   ///< <source hash>/<strategy>/<device>
};

/// Per-tune knobs that vary between requests on one context.
struct TuneRequest {
  /// Crash-safe tuning journal path; "" = no journal.
  std::string journal_path;
  /// Replay a compatible existing journal before tuning.
  bool resume = false;
  /// Serve a plan-store hit directly instead of re-running the tuner
  /// (the daemon's read path). The one-shot CLI keeps this false: it
  /// reports the hit but still re-optimizes, preserving artemisc
  /// behavior.
  bool reuse_stored_plan = false;
};

/// Everything one tune produced. `record`/`plan_bytes` are the canonical
/// durable form: byte-identical across the CLI and the daemon for the
/// same (program, device, strategy, tuner version).
struct TuneOutcome {
  CompileInfo compile;
  /// Full optimization result. Empty (no kernels) when the plan was
  /// served from the store without running the tuner.
  ProgramResult result;
  storage::PlanRecord record;
  std::string plan_bytes;  ///< storage::encode_plan_record(record)
  bool store_hit = false;          ///< key was published before this tune
  /// The pre-tune store hit, when store_hit (the CLI prints it; the
  /// daemon serves it).
  std::optional<storage::PlanRecord> stored;
  bool served_from_store = false;  ///< tuner skipped, record reused
  enum class StorePut { NotAttempted, Ok, Failed };
  StorePut store_put = StorePut::NotAttempted;
  robust::JournalLoadResult journal_load;
  std::size_t journal_recorded = 0;
  std::size_t journal_replayed = 0;
  bool journal_active = false;
};

/// One copyout array checked against the reference interpreter.
struct RunCheck {
  std::string array;
  double checksum = 0;
  double max_abs_diff = 0;  ///< planned execution vs reference
};

struct RunOutcome {
  CompileInfo compile;
  std::vector<RunCheck> checks;
};

/// Context-lifetime counters (monotonic; the daemon's stats endpoint
/// merges them with PlanStoreStats).
struct ContextStats {
  std::uint64_t compiles = 0;
  std::uint64_t tunes = 0;
  std::uint64_t tuner_runs = 0;    ///< tunes that ran the optimizer
  std::uint64_t store_hits = 0;    ///< plan-store hits observed by tune()
  std::uint64_t store_serves = 0;  ///< tunes answered from the store
  std::uint64_t runs = 0;
};

/// The artemisc pipeline as a reentrant library: parse, key, consult the
/// plan store, tune (journaled and resumable), publish. All state is
/// owned by the instance — device spec, model params, strategy, open plan
/// store, Vfs binding — and nothing is written to process globals, so
/// independent contexts are safe to drive from concurrent threads, and
/// one context may serve concurrent tune() calls (its store and counters
/// are internally synchronized).
class ArtemisContext {
 public:
  explicit ArtemisContext(ContextOptions opts);

  ArtemisContext(const ArtemisContext&) = delete;
  ArtemisContext& operator=(const ArtemisContext&) = delete;

  /// Parse and key a program. Throws artemis::Error on a parse failure.
  CompileInfo compile(const std::string& source) const;

  /// The full pipeline for one source. Throws artemis::Error on parse /
  /// infeasibility failures and propagates storage::FsCrash (a simulated
  /// machine death must never be absorbed).
  TuneOutcome tune(const std::string& source, const TuneRequest& req = {});

  /// Functional run: execute every step with plain per-step plans and
  /// confront each copyout array with the reference interpreter.
  RunOutcome run(const std::string& source);

  /// The stored plan for a compiled program, if the store has one.
  /// Counted as a store hit/miss like tune()'s own lookup.
  std::optional<storage::PlanRecord> stored_plan(const std::string& plan_key);

  const ContextOptions& options() const { return opts_; }
  const gpumodel::DeviceSpec& device() const { return opts_.device; }
  const Strategy& strategy() const { return opts_.strategy; }
  /// ContextOptions::jobs with 0 resolved to the process default.
  int resolved_jobs() const;
  storage::Vfs& vfs() const { return *vfs_; }
  /// nullptr when the context has no durable store.
  storage::PlanStore* store() { return store_ ? &*store_ : nullptr; }
  ContextStats stats() const;

  /// The canonical durable record for a tuning result — the single
  /// encoder used by the CLI and the daemon, so "plan bytes" always
  /// means the same bytes.
  static storage::PlanRecord make_plan_record(const std::string& plan_key,
                                              const ProgramResult& result,
                                              const gpumodel::DeviceSpec& dev,
                                              const Strategy& strategy);

 private:
  ContextOptions opts_;
  storage::Vfs* vfs_;  ///< never null (real_vfs() when unset)
  std::optional<storage::PlanStore> store_;
  mutable std::mutex stats_mu_;
  mutable ContextStats stats_;  ///< compile() is logically const
};

}  // namespace artemis::driver
