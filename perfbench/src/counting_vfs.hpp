#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "artemis/storage/vfs.hpp"

namespace perfbench {

/// A storage::Vfs that forwards to another one and counts, for each class
/// of path, the files created, bytes written and fsyncs requested. The
/// serve-mix workload hands it to the daemon (ServiceOptions::context.vfs),
/// which gives exact per-cold-tune counts of journal records and syncs.
///
/// A journal is removed once its writer lets go of it: the daemon never
/// removes its .wal files, the workload never reads one back, and a cold
/// tune journals about 1.4 MB, which would otherwise pile up in the
/// in-memory filesystem under it.
class CountingVfs : public artemis::storage::Vfs {
 public:
  /// Plan objects (and their shard directories), .wal journals, the plan
  /// store's write-then-rename temp files, and everything else.
  enum Class { kPlan, kWal, kTmp, kOther, kClasses };
  struct Counts {
    std::uint64_t files = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t syncs = 0;
  };

  explicit CountingVfs(artemis::storage::Vfs& base) : base_(base) {}

  static Class classify(const std::string& path);
  Counts counts(Class c) const;
  static const char* class_name(Class c);

  bool exists(const std::string& path) override { return base_.exists(path); }
  std::optional<std::string> read(const std::string& path) override {
    return base_.read(path);
  }
  std::vector<std::string> list(const std::string& dir) override {
    return base_.list(dir);
  }
  std::unique_ptr<artemis::storage::VfsFile> create(const std::string& path,
                                                    bool truncate) override;
  void mkdirs(const std::string& path) override { base_.mkdirs(path); }
  void rename(const std::string& from, const std::string& to) override {
    base_.rename(from, to);
  }
  bool remove(const std::string& path) override { return base_.remove(path); }
  void sync_dir(const std::string& path) override;
  std::unique_ptr<artemis::storage::VfsLock> try_lock(
      const std::string& path, bool* stale_reclaimed) override {
    return base_.try_lock(path, stale_reclaimed);
  }
  std::string process_tag() const override { return base_.process_tag(); }
  bool tag_alive(const std::string& tag) override {
    return base_.tag_alive(tag);
  }

 private:
  friend class CountingFile;
  struct Atomics {
    std::atomic<std::uint64_t> files{0}, writes{0}, bytes{0}, syncs{0};
  };

  artemis::storage::Vfs& base_;
  std::array<Atomics, kClasses> counts_;
};

}  // namespace perfbench
