#include "artemis/robust/errors.hpp"

namespace artemis::robust {

const char* error_class(const std::exception& e) {
  if (dynamic_cast<const EvalTimeout*>(&e) != nullptr) return "eval_timeout";
  if (dynamic_cast<const EvalCrash*>(&e) != nullptr) return "eval_crash";
  if (dynamic_cast<const PlanError*>(&e) != nullptr) return "plan_error";
  if (dynamic_cast<const Error*>(&e) != nullptr) return "error";
  return "exception";
}

}  // namespace artemis::robust
