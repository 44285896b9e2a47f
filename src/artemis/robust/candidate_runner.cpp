#include "artemis/robust/candidate_runner.hpp"

#include "artemis/common/str.hpp"
#include "artemis/robust/fault_injection.hpp"

namespace artemis::robust {

namespace {

/// Infeasibility is deterministic: no retry, no quarantine debit.
void mark_infeasible(RunOutcome& out) {
  out.status = RunStatus::Infeasible;
  out.reason = "infeasible";
}

}  // namespace

const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::Ok: return "ok";
    case RunStatus::Infeasible: return "infeasible";
    case RunStatus::Crash: return "crash";
    case RunStatus::Timeout: return "timeout";
    case RunStatus::Quarantined: return "quarantined";
  }
  return "?";
}

RunOutcome CandidateRunner::run(const char* site, const std::string& key,
                                const EvalFn& eval) {
  RunOutcome out;

  if (!fault_injection_enabled()) {
    // Fast path: one evaluation, no map lookups.
    out.attempts = 1;
    std::optional<gpumodel::KernelEval> ev = eval();
    if (ev) {
      out.eval = std::move(*ev);
    } else {
      mark_infeasible(out);
    }
    return out;
  }

  if (is_quarantined(key)) {
    out.status = RunStatus::Quarantined;
    out.reason = str_cat("quarantined after ", kQuarantineThreshold,
                         " consecutive failures");
    return out;
  }

  RunStatus last_failure = RunStatus::Crash;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) ++out.retries;
    ++out.attempts;
    try {
      fault_point(site, key, attempt);
      std::optional<gpumodel::KernelEval> ev = eval();
      if (!ev) {
        mark_infeasible(out);
        return out;
      }
      if (injected_timeout(site, key, attempt)) {
        throw EvalTimeout(str_cat("injected timeout at ", site, " [", key,
                                  "]"));
      }
      out.status = RunStatus::Ok;
      out.eval = std::move(*ev);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        consecutive_failures_.erase(key);
      }
      return out;
    } catch (const EvalTimeout& e) {
      last_failure = RunStatus::Timeout;
      out.reason = e.what();
    } catch (const EvalCrash& e) {
      last_failure = RunStatus::Crash;
      out.reason = e.what();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (++consecutive_failures_[key] >= kQuarantineThreshold) {
        // insert() returns false for a key another shard already
        // quarantined; only the inserting call reports quarantined_now.
        out.quarantined_now = quarantined_.insert(key).second;
        break;
      }
    }
  }
  out.status = last_failure;
  return out;
}

}  // namespace artemis::robust
