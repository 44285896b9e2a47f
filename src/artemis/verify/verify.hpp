#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "artemis/ir/program.hpp"

namespace artemis::verify {

/// The five property families the differential harness checks. Every
/// family takes a (usually randomly generated) program plus a data seed
/// and decides semantics-preservation end to end.
enum class Property {
  RoundTrip,             ///< print -> parse -> print is a fixpoint
  TransformEquivalence,  ///< fusion/fission/fold/retime preserve semantics
  EngineEquivalence,     ///< run_program_oracle vs reference, bytecode
                         ///< and native (bit-identical), jobs 1/2/4,
                         ///< per-call and fused
  TunerDeterminism,      ///< same seed + jobs => byte-identical plan/journal
  VariantEquivalence,    ///< profiler code-differencing variants agree
};

const char* property_name(Property p);
std::optional<Property> property_by_name(const std::string& name);
std::vector<Property> all_properties();

/// Outcome of one property check. `detail` is empty on success and a
/// one-line human-readable mismatch description on failure.
struct CheckResult {
  bool ok = true;
  std::string detail;
};

CheckResult check_roundtrip(const ir::Program& prog);
CheckResult check_transforms(const ir::Program& prog, std::uint64_t seed);
CheckResult check_engines(const ir::Program& prog, std::uint64_t seed);
CheckResult check_tuner_determinism(const ir::Program& prog,
                                    std::uint64_t seed);
CheckResult check_variants(const ir::Program& prog, std::uint64_t seed);

/// Dispatch to the family's checker. Exceptions escaping a checker are
/// caught and reported as failures (a crash is a property violation).
CheckResult check_property(Property p, const ir::Program& prog,
                           std::uint64_t seed);

struct VerifyOptions {
  /// Random programs generated per run; each is checked against every
  /// enabled property family (the expensive families are sampled).
  int seed_count = 50;
  /// Base of the seed block; program i uses base_seed + i.
  std::uint64_t base_seed = 0xA27E3115;
  /// Families to check. Empty = all five.
  std::vector<Property> properties;
  /// Minimize failing programs with the greedy shrinker.
  bool shrink = true;
  /// Property evaluations the shrinker may spend per failure.
  int max_shrink_checks = 400;
  /// When set, each (minimized) failure is written as a reproducer .dsl
  /// into this directory (created if needed).
  std::string corpus_dir;
  /// Stop after this many failures (0 = collect everything).
  int max_failures = 10;
};

/// One (minimized) property failure.
struct Failure {
  Property property = Property::RoundTrip;
  std::uint64_t seed = 0;     ///< data/generation seed of the failing trial
  std::string detail;         ///< mismatch description (original failure)
  std::string program_dsl;    ///< minimized program text
  std::string corpus_path;    ///< reproducer path when corpus_dir was set
  int shrink_rounds = 0;      ///< accepted shrink steps
};

struct VerifyReport {
  int programs_checked = 0;
  int checks_run = 0;
  std::vector<Failure> failures;
  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Run the whole harness: a fixed block of named paper kernels plus
/// `seed_count` random programs, each checked against the enabled
/// property families; failures are shrunk and written to the corpus.
VerifyReport run_verify(const VerifyOptions& opts = {});

/// Check every enabled property family against one specific program
/// (the `artemisc --verify prog.dsl` path).
VerifyReport verify_program(const ir::Program& prog,
                            const VerifyOptions& opts = {});

}  // namespace artemis::verify
