#include "counting_vfs.hpp"

namespace perfbench {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

class CountingFile : public artemis::storage::VfsFile {
 public:
  CountingFile(std::unique_ptr<artemis::storage::VfsFile> base,
               CountingVfs& vfs, std::string path, CountingVfs::Class cls)
      : base_(std::move(base)), vfs_(vfs), path_(std::move(path)), cls_(cls) {}
  ~CountingFile() override {
    if (cls_ != CountingVfs::kWal) return;
    base_.reset();
    vfs_.base_.remove(path_);
  }
  CountingFile(const CountingFile&) = delete;
  CountingFile& operator=(const CountingFile&) = delete;

  void write(const std::string& data) override {
    base_->write(data);
    auto& c = vfs_.counts_[cls_];
    c.writes.fetch_add(1, std::memory_order_relaxed);
    c.bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }
  void sync() override {
    vfs_.counts_[cls_].syncs.fetch_add(1, std::memory_order_relaxed);
    base_->sync();
  }
  void close() override { base_->close(); }

 private:
  std::unique_ptr<artemis::storage::VfsFile> base_;
  CountingVfs& vfs_;
  const std::string path_;
  const CountingVfs::Class cls_;
};

// A plan store publishes a record by writing <root>/tmp/<key>...tmp, then
// renaming it to <root>/objects/<shard>/<key>.plan and syncing the shard
// directory; a tuning journal is one appended <plan key>.wal per program.
CountingVfs::Class CountingVfs::classify(const std::string& path) {
  if (ends_with(path, ".wal")) return kWal;
  if (path.find("/objects/") != std::string::npos) return kPlan;
  if (path.find("/tmp/") != std::string::npos) return kTmp;
  return kOther;
}

const char* CountingVfs::class_name(Class c) {
  switch (c) {
    case kPlan: return "plan";
    case kWal: return "wal";
    case kTmp: return "tmp";
    default: return "other";
  }
}

CountingVfs::Counts CountingVfs::counts(Class c) const {
  const auto& a = counts_[c];
  return {a.files.load(), a.writes.load(), a.bytes.load(), a.syncs.load()};
}

std::unique_ptr<artemis::storage::VfsFile> CountingVfs::create(
    const std::string& path, bool truncate) {
  const Class cls = classify(path);
  auto file = base_.create(path, truncate);
  counts_[cls].files.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<CountingFile>(std::move(file), *this, path, cls);
}

void CountingVfs::sync_dir(const std::string& path) {
  counts_[classify(path + "/")].syncs.fetch_add(1, std::memory_order_relaxed);
  base_.sync_dir(path);
}

}  // namespace perfbench
