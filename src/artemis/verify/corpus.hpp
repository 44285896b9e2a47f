#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artemis/ir/program.hpp"
#include "artemis/verify/verify.hpp"

namespace artemis::verify {

/// One checked-in reproducer: a minimized failing program plus the
/// property family and seed that exposed it. The on-disk format is a
/// plain .dsl file with a structured comment header, so every reproducer
/// parses directly with dsl::parse:
///
///   // artemis-verify reproducer
///   // property: engine-equivalence
///   // seed: 1234
///   // detail: oracle vs bytecode jobs=2: grid 'v0' differs ...
///   parameter N=8;
///   ...
struct CorpusEntry {
  std::string path;
  Property property = Property::RoundTrip;
  std::uint64_t seed = 0;
  std::string detail;
  std::string dsl_text;  ///< full file contents (header included)
};

/// Write a reproducer into `dir` (created if needed). The filename is
/// <property>-<seed>.dsl; an existing file is overwritten. Returns the
/// path written.
std::string write_reproducer(const std::string& dir, Property property,
                             std::uint64_t seed, const std::string& detail,
                             const ir::Program& prog);

/// Load every *.dsl reproducer under `dir` (sorted by filename). Files
/// without a valid header are reported as a CorpusEntry whose detail
/// explains the problem and whose dsl_text is empty — replay_entry then
/// fails loudly instead of silently skipping them.
std::vector<CorpusEntry> load_corpus(const std::string& dir);

/// Re-run the recorded property family against the reproducer. ok means
/// the historical bug stays fixed.
CheckResult replay_entry(const CorpusEntry& entry);

}  // namespace artemis::verify
