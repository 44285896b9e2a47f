#pragma once

#include <cstdint>
#include <string>

namespace artemis::robust {

/// Configuration of the deterministic fault-injection harness. Parsed
/// from the `--fault-spec` command-line flag or the ARTEMIS_FAULT_SPEC
/// environment variable; see docs/ROBUSTNESS.md for the grammar:
///
///   crash=0.2,timeout=0.05,seed=42,site=tuner
///
/// All probabilities are per evaluation attempt. Faults are a pure hash
/// of (seed, site, key, attempt): the same candidate fails the same way
/// in every run with the same seed, regardless of enumeration order, so
/// fault-injected searches stay reproducible and resumable.
struct FaultSpec {
  double crash_p = 0;      ///< probability of an injected EvalCrash
  double timeout_p = 0;    ///< probability of an injected EvalTimeout
  std::uint64_t seed = 0;  ///< hash seed; same seed => same faults
  std::string site = "";   ///< substring filter on site names ("" = all)

  /// --- fs.* fault points, consumed by storage::FaultVfs --------------------
  /// Grammar: `fs.fail=P,fs.enospc=P,fs.short=P,fs.crash_at=K`. The fs
  /// sites ("fs.create", "fs.write", "fs.sync", "fs.rename", "fs.remove",
  /// "fs.mkdir") honor the same `site=` substring filter, and decisions
  /// are the same pure hash of (seed, site, path, op index) — an fs fault
  /// hits the same operation in every run with the same seed.
  double fs_fail_p = 0;    ///< probability a mutating fs op throws EIO
  double fs_enospc_p = 0;  ///< probability a write throws ENOSPC (torn)
  double fs_short_p = 0;   ///< probability a write is short (torn, then EIO)
  std::int64_t fs_crash_at = -1;  ///< whole-process crash at mutating op K

  /// Evaluation-level faults (the PR-2 fault points). fs faults are
  /// deliberately excluded: they arm FaultVfs, not the eval fault points.
  bool any_faults() const { return crash_p > 0 || timeout_p > 0; }
  bool any_fs_faults() const {
    return fs_fail_p > 0 || fs_enospc_p > 0 || fs_short_p > 0 ||
           fs_crash_at >= 0;
  }
};

/// Parse the fault-spec grammar above. Throws artemis::Error (with the
/// offending token in the message) on unknown keys or malformed values.
FaultSpec parse_fault_spec(const std::string& text);

/// The deterministic decision draw: uniform in [0, 1), a pure function of
/// (spec.seed, site, key, attempt, lane). Exposed so storage::FaultVfs can
/// make fs.* decisions with exactly the same hash discipline the eval
/// fault points use. `lane` decorrelates independent decisions taken at
/// the same coordinates.
double fault_uniform(const FaultSpec& spec, const char* site,
                     const std::string& key, int attempt,
                     std::uint64_t lane);

/// What the harness decided for one (site, key, attempt) evaluation.
enum class FaultAction { None, Crash, Timeout };

/// A deterministic, seeded fault plan. Decisions depend only on the
/// spec's seed and the (site, key, attempt) coordinates, never on call
/// order or wall clock.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {}

  const FaultSpec& spec() const { return spec_; }

  /// Does the site-name filter select this site?
  bool site_enabled(const char* site) const;

  /// Crash is drawn first (lane 1), then timeout (lane 2).
  FaultAction decide(const char* site, const std::string& key,
                     int attempt) const;

 private:
  FaultSpec spec_;
};

/// --- process-global installation ------------------------------------------
///
/// Disabled by default and free when off: every fault point first checks
/// one relaxed atomic flag and does nothing else, mirroring the telemetry
/// collector's zero-cost-when-off contract.

void install_fault_plan(const FaultSpec& spec);
void clear_fault_plan();

/// True when a fault plan with any non-zero probability is installed.
/// One relaxed atomic load.
bool fault_injection_enabled();

/// The installed plan, or nullptr. Only meaningful after
/// fault_injection_enabled() returned true.
const FaultPlan* current_fault_plan();

/// Install from ARTEMIS_FAULT_SPEC if set; returns whether a plan with
/// faults was installed. Called once automatically at process start so
/// `ARTEMIS_FAULT_SPEC=... ctest` exercises the whole suite under faults.
bool install_fault_plan_from_env();

void fault_point_slow(const char* site, const std::string& key, int attempt);

/// An injection site. When fault injection is off this is one relaxed
/// atomic load. When on, it throws EvalCrash if the installed plan draws
/// a crash for these coordinates.
inline void fault_point(const char* site, const std::string& key,
                        int attempt = 0) {
  if (!fault_injection_enabled()) return;
  fault_point_slow(site, key, attempt);
}

/// Whether the installed plan draws a timeout for these coordinates (and
/// no crash, which is drawn first). A pure hash decision, no clock: the
/// candidate runner raises EvalTimeout for it once the attempt's
/// evaluation has returned.
bool injected_timeout(const char* site, const std::string& key, int attempt);

}  // namespace artemis::robust
