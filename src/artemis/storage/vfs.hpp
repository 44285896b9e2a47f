#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "artemis/common/check.hpp"
#include "artemis/robust/fault_injection.hpp"

namespace artemis::storage {

/// A filesystem operation failed. `code()` distinguishes the conditions a
/// durable store must handle differently: plain I/O errors (retryable or
/// not, the data may be torn), a full disk (the write is torn for sure),
/// and a missing path.
class VfsError : public Error {
 public:
  enum class Code { Io, NoSpace, NotFound };
  VfsError(Code code, const std::string& what) : Error(what), code_(code) {}
  Code code() const { return code_; }

 private:
  Code code_;
};

/// Thrown by FaultVfs once its injected crash point is reached: the
/// simulated machine is dead and every subsequent filesystem operation —
/// read or write — fails with this. Callers must NOT catch-and-continue
/// past it (a real crash would not have); the crash-consistency harness
/// catches it at the top of the simulated process only.
class FsCrash : public Error {
 public:
  using Error::Error;
};

/// An open writable file. write() either transfers every byte or throws
/// (a short transfer surfaces as VfsError with the prefix already on
/// disk — exactly the torn-write failure mode durable formats must
/// tolerate). sync() is fsync: after it returns, everything written so
/// far survives a crash. close() is idempotent; the destructor closes
/// without syncing, like a process exit.
class VfsFile {
 public:
  virtual ~VfsFile() = default;
  virtual void write(const std::string& data) = 0;
  virtual void sync() = 0;
  virtual void close() = 0;
};

/// A held advisory lock; released on destruction. See Vfs::try_lock.
class VfsLock {
 public:
  virtual ~VfsLock() = default;
};

/// The filesystem abstraction every durable artifact (plan store, tuning
/// cache, tuning journal) writes through. Narrow by design: just the
/// operations the write-ahead / write-temp-publish protocols need, each
/// with explicit durability semantics, so a fault-injecting or in-memory
/// implementation can stand in for the real thing in tests and the
/// crash-consistency harness.
class Vfs {
 public:
  virtual ~Vfs() = default;

  // --- reads ----------------------------------------------------------------

  virtual bool exists(const std::string& path) = 0;
  /// Whole-file read. nullopt = no such file; VfsError on any other
  /// failure (so "missing" and "unreadable" can never be conflated).
  virtual std::optional<std::string> read(const std::string& path) = 0;
  /// Names (not paths) of entries directly under `dir`, sorted. An absent
  /// directory lists as empty.
  virtual std::vector<std::string> list(const std::string& dir) = 0;

  // --- mutations ------------------------------------------------------------

  /// Open for writing: truncate-or-create when `truncate`, append-or-create
  /// otherwise.
  virtual std::unique_ptr<VfsFile> create(const std::string& path,
                                          bool truncate) = 0;
  virtual void mkdirs(const std::string& path) = 0;
  /// Atomic replace (POSIX rename): readers see the old file or the new
  /// one, never a mixture. The publish step of every durable write.
  virtual void rename(const std::string& from, const std::string& to) = 0;
  /// Returns false if the path did not exist; throws on real failure.
  virtual bool remove(const std::string& path) = 0;
  /// fsync the directory itself, making previously renamed/created entries
  /// durable. No-op on filesystems that do not support it.
  virtual void sync_dir(const std::string& path) = 0;

  // --- locking --------------------------------------------------------------

  /// Try to acquire the advisory whole-store lock at `path` (creating the
  /// lock file if needed). Returns nullptr when another *live* process
  /// holds it. On success the holder's tag is written into the file; a
  /// clean release truncates it back to empty. A non-empty lock file at
  /// acquisition therefore proves the previous holder died while holding
  /// the lock — that is reported through `stale_reclaimed` so stores can
  /// count reclaimed stale locks.
  virtual std::unique_ptr<VfsLock> try_lock(const std::string& path,
                                            bool* stale_reclaimed) = 0;

  /// Identity written into lock files and used to make temp names unique
  /// per process ("pid:1234").
  virtual std::string process_tag() const = 0;

  /// Is the process a tag names still alive? Recovery sweeps use this to
  /// distinguish a dead writer's orphan temp (reclaimable) from a live
  /// concurrent writer's in-flight temp (must not be touched — deleting
  /// it would fail that writer's commit rename). The default is
  /// deliberately conservative: a tag this Vfs cannot interpret is
  /// treated as alive, so at worst an orphan lingers until its owner's
  /// pid can be ruled dead — never the reverse.
  virtual bool tag_alive(const std::string& tag) {
    (void)tag;
    return true;
  }
};

/// The process-global real (POSIX) filesystem.
Vfs& real_vfs();

/// Directory part of a path ("a/b/c" -> "a/b", "c" -> ".").
std::string dirname(const std::string& path);

/// The durable-write protocol in one call: write `content` to a unique
/// sibling temp file, fsync it, atomically rename it over `path`, and
/// fsync the parent directory. After this returns, a crash at any instant
/// leaves either the complete old file or the complete new one. Throws
/// VfsError on failure (the temp file is cleaned up best-effort; `path`
/// is untouched).
void atomic_write_file(Vfs& vfs, const std::string& path,
                       const std::string& content);

// ---------------------------------------------------------------------------
// MemVfs — in-memory filesystem with crash semantics and an op trace
// ---------------------------------------------------------------------------

/// One recorded mutation, replayable by MemVfs::apply.
struct VfsOp {
  enum class Kind { Create, Write, Sync, Rename, Remove, Mkdir, SyncDir };
  Kind kind = Kind::Write;
  std::string path;
  std::string path2;  ///< Rename target
  std::string data;   ///< Write payload
  bool truncate = false;  ///< Create mode
};

/// In-memory Vfs with explicit durability semantics, the substrate of the
/// crash-consistency harness:
///
///  - file *data* written through a VfsFile is volatile until sync();
///  - *namespace* operations (create/rename/remove/mkdir) apply in order
///    and survive a crash (the ext4 ordered-journal model; sync_dir is
///    kept in the protocol but is a no-op here);
///  - crash(variant) drops volatile state: each file keeps its synced
///    content plus a deterministic, variant-seeded prefix of its unsynced
///    tail — "the page cache wrote back what it pleased". Variant 0
///    models strictly-nothing-written-back, variant 1 models
///    everything-made-it, higher variants mix per file. Held locks are
///    dropped (the kernel releases them with the process) but lock-file
///    contents survive, which is what makes stale-lock detection testable.
///
/// Every successful mutation is appended to trace() (when recording is
/// on), so a workload can be replayed prefix-by-prefix via replay_prefix.
/// All operations are thread-safe behind one mutex.
class MemVfs : public Vfs {
 public:
  MemVfs() = default;

  bool exists(const std::string& path) override;
  std::optional<std::string> read(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir) override;
  std::unique_ptr<VfsFile> create(const std::string& path,
                                  bool truncate) override;
  void mkdirs(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  void sync_dir(const std::string& path) override;
  std::unique_ptr<VfsLock> try_lock(const std::string& path,
                                    bool* stale_reclaimed) override;
  std::string process_tag() const override { return tag_; }
  bool tag_alive(const std::string& tag) override;

  /// Change the simulated process identity (for multi-process tests: two
  /// "processes" are two tags sharing one MemVfs). The new tag joins the
  /// live set; previous tags stay alive until mark_tag_dead.
  void set_process_tag(std::string tag);

  /// Simulate one tagged process dying (without machine loss): its tag
  /// stops answering alive and its held locks are released by the
  /// "kernel", lock-file contents left in place — exactly what a real
  /// SIGKILL leaves behind.
  void mark_tag_dead(const std::string& tag);

  void set_record_trace(bool on) { record_ = on; }
  std::vector<VfsOp> trace() const;

  /// Replay one recorded mutation (never traced itself).
  void apply(const VfsOp& op);

  /// Simulate power loss; see the class comment.
  void crash(std::uint64_t variant);

  /// Direct durable-state pokes for tests: overwrite a file as fully
  /// synced content (bypasses the trace).
  void install_file(const std::string& path, const std::string& content);

 private:
  struct File {
    std::string data;         ///< current (volatile) content
    std::size_t synced = 0;   ///< prefix length guaranteed durable
  };

  friend class MemVfsFile;

  void do_write(const std::string& path, const std::string& data);
  void do_sync(const std::string& path);
  void do_create(const std::string& path, bool truncate);
  void record(VfsOp op);
  File* find(const std::string& path);

  mutable std::mutex mu_;
  std::map<std::string, File> files_;
  std::set<std::string> dirs_{"."};
  std::map<std::string, std::string> held_locks_;  ///< path -> holder tag
  std::vector<VfsOp> trace_;
  bool record_ = false;
  std::string tag_ = "pid:mem";
  std::set<std::string> live_tags_{"pid:mem"};
};

/// Rebuild the filesystem state a crash at operation `k` of `trace` could
/// leave behind: a fresh MemVfs with ops [0, k) applied, then
/// crash(variant). Every (k, variant) pair is deterministic.
std::unique_ptr<MemVfs> replay_prefix(const std::vector<VfsOp>& trace,
                                      std::size_t k, std::uint64_t variant);

// ---------------------------------------------------------------------------
// FaultVfs — deterministic filesystem fault injection
// ---------------------------------------------------------------------------

/// Running totals of injected filesystem faults.
struct FsFaultCounters {
  std::atomic<std::uint64_t> failures{0};      ///< injected EIO
  std::atomic<std::uint64_t> enospc{0};        ///< injected ENOSPC
  std::atomic<std::uint64_t> short_writes{0};  ///< injected torn writes
  std::atomic<std::uint64_t> crashed{0};       ///< crash point reached
};

/// Wraps any Vfs and injects faults according to the `fs.*` keys of the
/// PR-2 fault-spec grammar (docs/ROBUSTNESS.md):
///
///   fs.fail=P      any mutating op (or read) throws VfsError(Io)
///   fs.enospc=P    a write throws VfsError(NoSpace), prefix already on disk
///   fs.short=P     a write transfers a strict prefix, then throws Io
///   fs.crash_at=K  the K-th mutating op (0-based) and everything after it
///                  throws FsCrash — the simulated machine is dead
///
/// Decisions reuse the deterministic (seed, site, key, attempt) hash of
/// the eval fault points, with site = "fs.<op>", key = path and attempt =
/// the mutating-op index, and honor the spec's `site=` substring filter —
/// so the same spec tears the same write in every run.
class FaultVfs : public Vfs {
 public:
  FaultVfs(Vfs& base, robust::FaultSpec spec)
      : base_(base), spec_(std::move(spec)) {}

  bool exists(const std::string& path) override;
  std::optional<std::string> read(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir) override;
  std::unique_ptr<VfsFile> create(const std::string& path,
                                  bool truncate) override;
  void mkdirs(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  void sync_dir(const std::string& path) override;
  std::unique_ptr<VfsLock> try_lock(const std::string& path,
                                    bool* stale_reclaimed) override;
  std::string process_tag() const override { return base_.process_tag(); }
  bool tag_alive(const std::string& tag) override;

  const FsFaultCounters& counters() const { return counters_; }
  bool crashed() const { return crashed_.load(); }
  /// Reset the crash flag and op counter ("reboot" after FsCrash) so one
  /// FaultVfs can drive repeated crash/recover cycles.
  void reboot();

 private:
  friend class FaultVfsFile;

  /// Bump the mutating-op counter, honor the crash point, and decide
  /// whether this op fails. Throws FsCrash / VfsError accordingly;
  /// returns the op index for write-tear decisions.
  std::uint64_t mutating_op(const char* site, const std::string& path);
  void check_crashed() const;
  bool decide(const char* site, const std::string& path, std::uint64_t op,
              double p, std::uint64_t lane) const;

  Vfs& base_;
  robust::FaultSpec spec_;
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> read_ops_{0};
  std::atomic<bool> crashed_{false};
  FsFaultCounters counters_;
};

}  // namespace artemis::storage
