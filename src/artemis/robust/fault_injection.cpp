#include "artemis/robust/fault_injection.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "artemis/common/str.hpp"
#include "artemis/robust/errors.hpp"

namespace artemis::robust {

namespace {

std::atomic<bool> g_enabled{false};
/// Owned plan; replaced under no lock. Installation happens at process
/// start or test SetUp, never concurrently with evaluations.
std::unique_ptr<FaultPlan> g_plan;

/// SplitMix64 finalizer: the avalanche step used to decorrelate the
/// (seed, site, key, attempt) coordinates into an independent draw.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_str(const std::string& s, std::uint64_t h) {
  for (const char c : s) {
    h = mix(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

double parse_prob(const std::string& key, const std::string& val) {
  double p = 0;
  try {
    p = std::stod(val);
  } catch (const std::exception&) {
    throw Error(str_cat("fault-spec: bad value for '", key, "': '", val,
                        "'"));
  }
  if (p < 0 || p > 1) {
    throw Error(str_cat("fault-spec: '", key, "' must be in [0,1], got ",
                        val));
  }
  return p;
}

}  // namespace

double fault_uniform(const FaultSpec& spec, const char* site,
                     const std::string& key, int attempt,
                     std::uint64_t lane) {
  std::uint64_t h = mix(spec.seed ^ (lane * 0x9e3779b97f4a7c15ull));
  h = hash_str(site, h);
  h = hash_str(key, h);
  h = mix(h ^ static_cast<std::uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for (const auto& raw : split(text, ',')) {
    const std::string token = trim(raw);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw Error(str_cat("fault-spec: expected key=value, got '", token,
                          "' (grammar: crash=P,timeout=P,seed=N,"
                          "site=NAME)"));
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    if (key == "crash") {
      spec.crash_p = parse_prob(key, val);
    } else if (key == "timeout") {
      spec.timeout_p = parse_prob(key, val);
    } else if (key == "seed") {
      try {
        spec.seed = std::stoull(val);
      } catch (const std::exception&) {
        throw Error(str_cat("fault-spec: bad seed '", val, "'"));
      }
    } else if (key == "site") {
      spec.site = val;
    } else if (key == "fs.fail") {
      spec.fs_fail_p = parse_prob(key, val);
    } else if (key == "fs.enospc") {
      spec.fs_enospc_p = parse_prob(key, val);
    } else if (key == "fs.short") {
      spec.fs_short_p = parse_prob(key, val);
    } else if (key == "fs.crash_at") {
      try {
        spec.fs_crash_at = std::stoll(val);
      } catch (const std::exception&) {
        spec.fs_crash_at = -2;
      }
      if (spec.fs_crash_at < 0) {
        throw Error(str_cat("fault-spec: 'fs.crash_at' must be an integer "
                            ">= 0, got '", val, "'"));
      }
    } else {
      throw Error(str_cat("fault-spec: unknown key '", key,
                          "' (known: crash, timeout, seed, site, "
                          "fs.fail, fs.enospc, fs.short, fs.crash_at)"));
    }
  }
  return spec;
}

bool FaultPlan::site_enabled(const char* site) const {
  return spec_.site.empty() ||
         std::string(site).find(spec_.site) != std::string::npos;
}

FaultAction FaultPlan::decide(const char* site, const std::string& key,
                              int attempt) const {
  if (!site_enabled(site)) return FaultAction::None;
  if (spec_.crash_p > 0 &&
      fault_uniform(spec_, site, key, attempt, 1) < spec_.crash_p) {
    return FaultAction::Crash;
  }
  if (spec_.timeout_p > 0 &&
      fault_uniform(spec_, site, key, attempt, 2) < spec_.timeout_p) {
    return FaultAction::Timeout;
  }
  return FaultAction::None;
}

void install_fault_plan(const FaultSpec& spec) {
  g_plan = std::make_unique<FaultPlan>(spec);
  g_enabled.store(spec.any_faults(), std::memory_order_relaxed);
}

void clear_fault_plan() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_plan.reset();
}

bool fault_injection_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

const FaultPlan* current_fault_plan() { return g_plan.get(); }

bool install_fault_plan_from_env() {
  const char* env = std::getenv("ARTEMIS_FAULT_SPEC");
  if (env == nullptr || *env == '\0') return false;
  install_fault_plan(parse_fault_spec(env));
  return fault_injection_enabled();
}

void fault_point_slow(const char* site, const std::string& key,
                      int attempt) {
  const FaultPlan* plan = current_fault_plan();
  if (plan != nullptr &&
      plan->decide(site, key, attempt) == FaultAction::Crash) {
    throw EvalCrash(str_cat("injected crash at ", site, " [", key, "]"));
  }
}

bool injected_timeout(const char* site, const std::string& key,
                      int attempt) {
  if (!fault_injection_enabled()) return false;
  const FaultPlan* plan = current_fault_plan();
  return plan != nullptr &&
         plan->decide(site, key, attempt) == FaultAction::Timeout;
}

namespace {
/// Process-start installation from the environment, so an externally set
/// ARTEMIS_FAULT_SPEC reaches every binary linking the library (ctest
/// under fault injection, the CI resilience job) without per-call cost.
const bool g_env_installed = install_fault_plan_from_env();
}  // namespace

}  // namespace artemis::robust
