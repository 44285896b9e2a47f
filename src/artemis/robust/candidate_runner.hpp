#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/robust/errors.hpp"

namespace artemis::robust {

/// Evaluation attempts per candidate before the runner gives up.
inline constexpr int kMaxAttempts = 3;
/// Consecutive failed attempts (across run() calls) after which a
/// candidate key is quarantined and never evaluated again.
inline constexpr int kQuarantineThreshold = 3;

/// Why one run() call ended the way it did.
enum class RunStatus {
  Ok,           ///< eval holds a valid measurement
  Infeasible,   ///< the configuration can never run
  Crash,        ///< attempts exhausted on EvalCrash
  Timeout,      ///< attempts exhausted on EvalTimeout
  Quarantined,  ///< key was quarantined; evaluation skipped
};
const char* run_status_name(RunStatus s);

/// Everything one evaluation produced, success or not.
struct RunOutcome {
  RunStatus status = RunStatus::Ok;
  gpumodel::KernelEval eval;  ///< valid only when status == Ok
  int attempts = 0;           ///< attempts consumed by this call
  int retries = 0;            ///< attempts beyond the first
  bool quarantined_now = false;  ///< this call pushed the key into quarantine
  std::string reason;         ///< last failure message (non-Ok)

  bool ok() const { return status == RunStatus::Ok; }
};

/// Runs candidate evaluations with bounded retries (kMaxAttempts) and
/// per-key quarantine after kQuarantineThreshold consecutive failures.
/// With fault injection off, run() is one evaluation. One runner instance
/// spans one tuning search so quarantine state persists across stages.
/// run() may be called concurrently from the tuner's work-stealing shards:
/// the failure/quarantine maps are mutex-protected, and because fault
/// decisions are a pure hash of (seed, site, key, attempt), a key fails
/// the same way on every thread — quarantine membership is independent of
/// evaluation order.
class CandidateRunner {
 public:
  /// One evaluation: nullopt when the candidate is infeasible.
  using EvalFn = std::function<std::optional<gpumodel::KernelEval>()>;

  /// Evaluate one candidate identified by `key` (the journal/quarantine
  /// identity, e.g. the serialized config). `site` names the injection
  /// site consulted by the fault harness: an injected crash fails the
  /// attempt before `eval` runs, an injected timeout after it returns
  /// (an infeasible `eval` still wins). Thread-safe.
  RunOutcome run(const char* site, const std::string& key,
                 const EvalFn& eval);

  bool is_quarantined(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return quarantined_.count(key) > 0;
  }
  int quarantined_count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(quarantined_.size());
  }

 private:
  mutable std::mutex mu_;  ///< guards the two maps below
  std::map<std::string, int> consecutive_failures_;
  std::set<std::string> quarantined_;
};

}  // namespace artemis::robust
