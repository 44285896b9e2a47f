#pragma once

#include <exception>

#include "artemis/common/check.hpp"

namespace artemis::robust {

/// Base class for transient evaluation failures. Deliberately distinct
/// from PlanError: a PlanError means the configuration can never run on
/// the device (infeasible — retrying is pointless), while an EvalError
/// means one measurement attempt failed (a crashed generated variant, a
/// hung kernel) and the candidate may still be salvageable by retrying,
/// or must be quarantined after repeat offenses.
class EvalError : public Error {
 public:
  using Error::Error;
};

/// The evaluation hung (on real hardware, a kernel killed by the
/// watchdog). Evaluations here are analytic and never hang, so this is
/// only raised for a timeout the fault harness draws (FaultSpec::timeout_p).
class EvalTimeout : public EvalError {
 public:
  using EvalError::EvalError;
};

/// The evaluation aborted (a miscompiled variant, a launch that faulted).
class EvalCrash : public EvalError {
 public:
  using EvalError::EvalError;
};

/// Stable lower-case class name for an exception, used by telemetry
/// events that record dropped candidates ("eval_timeout", "eval_crash",
/// "plan_error", "error").
const char* error_class(const std::exception& e);

}  // namespace artemis::robust
