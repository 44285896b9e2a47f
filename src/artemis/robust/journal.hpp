#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "artemis/storage/vfs.hpp"

namespace artemis::robust {

/// One journaled evaluation outcome. `status` is a RunStatus name ("ok",
/// "infeasible", "crash", "timeout", "quarantined"); timing fields are
/// meaningful for "ok" records only.
struct JournalRecord {
  std::string status;
  double time_s = 0;
  double tflops = 0;
};

/// How loading an existing journal went.
struct JournalLoadResult {
  enum class Status {
    Fresh,            ///< no usable prior journal; starting a new one
    Replayed,         ///< prior records loaded and available for replay
    Missing,          ///< no file at the path (fresh start)
    VersionMismatch,  ///< header from an incompatible journal version
    KeyMismatch,      ///< journal belongs to a different run key
    IoError,          ///< file exists but cannot be read/written
  };
  Status status = Status::Fresh;
  std::size_t replayed = 0;  ///< records available for replay
  std::size_t skipped = 0;   ///< malformed lines dropped (reported)
  bool torn_tail = false;    ///< final line was torn by a crash and dropped
  std::string message;       ///< human-readable detail for non-Ok statuses
};

/// A crash-safe, append-only write-ahead journal of candidate
/// evaluations, one tab-separated record per line (docs/ROBUSTNESS.md):
///
///   #artemis-tuning-journal v1 key=<run key>
///   <status> \t <time_s> \t <tflops> \t <candidate key>
///
/// Durability guarantee: every record is written AND fsynced before
/// record() returns — not merely flushed to the OS — so a machine that
/// loses power at any instant loses at most the one record being
/// written; the loader tolerates that torn final line (and any malformed
/// interior lines) by dropping and reporting them instead of rejecting
/// the file. Torn-tail healing is itself crash-safe: the clean prefix is
/// republished via write-temp + fsync + atomic rename, never by
/// truncating the journal in place. Duplicate candidate keys are legal;
/// the later record wins.
///
/// Concurrency: open() is single-threaded setup; after it, lookup() is
/// lock-free (the replay map is immutable for the life of the run) and
/// record() serializes appends behind a mutex. The parallel tuner keeps
/// the journal's byte layout deterministic on top of that by committing
/// records from its ordered reduction only — one writer, enumeration
/// order — never directly from evaluation shards.
class TuningJournal {
 public:
  static constexpr int kVersion = 1;

  /// Default: the real filesystem. Tests and the crash-consistency
  /// harness inject a MemVfs or FaultVfs instead.
  TuningJournal() = default;
  explicit TuningJournal(storage::Vfs& vfs) : vfs_(&vfs) {}

  /// Open the journal for appending. With `resume` set, records from a
  /// compatible existing journal (same version and run key) are loaded
  /// first and become visible through lookup(); a missing or
  /// incompatible journal is reported and replaced by a fresh one. A
  /// torn tail is healed: the file is truncated back to its last intact
  /// record before appending continues.
  JournalLoadResult open(const std::string& path,
                         const std::string& run_key, bool resume);

  /// True once open() succeeded and records can be appended. A journal
  /// whose filesystem starts failing mid-run deactivates itself (tuning
  /// continues without write-ahead protection) rather than aborting.
  bool active() const {
    const std::lock_guard<std::mutex> lock(write_mu_);
    return out_ != nullptr;
  }

  /// Replayable record for a candidate key, if a prior run evaluated it.
  std::optional<JournalRecord> lookup(const std::string& key) const;

  /// Write-ahead one evaluation outcome: appended and fsynced before
  /// returning. Keys must not contain tabs or newlines. No-op when the
  /// journal is not active; a write failure deactivates the journal
  /// (counted as journal.write_errors). Thread-safe.
  void record(const std::string& key, const std::string& status,
              double time_s, double tflops);

  std::size_t replay_size() const { return entries_.size(); }
  std::size_t recorded() const {
    const std::lock_guard<std::mutex> lock(write_mu_);
    return recorded_;
  }

 private:
  storage::Vfs& vfs() const {
    return vfs_ != nullptr ? *vfs_ : storage::real_vfs();
  }

  std::map<std::string, JournalRecord> entries_;  ///< loaded for replay
  storage::Vfs* vfs_ = nullptr;  ///< nullptr = real_vfs() (non-owning)
  mutable std::mutex write_mu_;  ///< guards out_ and recorded_
  std::unique_ptr<storage::VfsFile> out_;
  std::size_t recorded_ = 0;
};

/// Parse journal text (without touching the filesystem): fills `out` with
/// the replayable records and returns the same diagnostics open() would.
/// Exposed for tests and tooling.
JournalLoadResult parse_journal_text(const std::string& text,
                                     const std::string& run_key,
                                     std::map<std::string, JournalRecord>* out);

}  // namespace artemis::robust
