#include "artemis/storage/vfs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>

#include "artemis/common/str.hpp"

namespace artemis::storage {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void throw_errno(const char* op, const std::string& path) {
  const int err = errno;
  const VfsError::Code code = err == ENOSPC || err == EDQUOT
                                  ? VfsError::Code::NoSpace
                                  : (err == ENOENT ? VfsError::Code::NotFound
                                                   : VfsError::Code::Io);
  throw VfsError(code, str_cat(op, " '", path, "': ", std::strerror(err)));
}

// --- RealVfs ---------------------------------------------------------------

class RealFile : public VfsFile {
 public:
  RealFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  void write(const std::string& data) override {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n =
          ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write", path_);
      }
      done += static_cast<std::size_t>(n);
    }
  }

  void sync() override {
    if (::fsync(fd_) != 0) throw_errno("fsync", path_);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_errno("close", path_);
  }

 private:
  int fd_;
  std::string path_;
};

class RealLock : public VfsLock {
 public:
  RealLock(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealLock() override {
    // Clean release: empty the file first (the liveness marker — a
    // non-empty lock file means its holder died), then drop the flock.
    if (::ftruncate(fd_, 0) == 0) ::fsync(fd_);
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }

 private:
  int fd_;
  std::string path_;
};

class RealVfs : public Vfs {
 public:
  bool exists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  std::optional<std::string> read(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return std::nullopt;
      throw_errno("open", path);
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        errno = err;
        throw_errno("read", path);
      }
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
  }

  std::vector<std::string> list(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::unique_ptr<VfsFile> create(const std::string& path,
                                  bool truncate) override {
    const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) throw_errno("create", path);
    return std::make_unique<RealFile>(fd, path);
  }

  void mkdirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) {
      throw VfsError(VfsError::Code::Io,
                     str_cat("mkdirs '", path, "': ", ec.message()));
    }
  }

  void rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) throw_errno("rename", from);
  }

  bool remove(const std::string& path) override {
    if (::unlink(path.c_str()) == 0) return true;
    if (errno == ENOENT) return false;
    throw_errno("unlink", path);
  }

  void sync_dir(const std::string& path) override {
    // Best-effort by contract: not every filesystem can fsync a
    // directory, and the callers' correctness reduces to "ordered
    // metadata" there, which is what those filesystems provide.
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
  }

  std::unique_ptr<VfsLock> try_lock(const std::string& path,
                                    bool* stale_reclaimed) override {
    if (stale_reclaimed != nullptr) *stale_reclaimed = false;
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) throw_errno("open lock", path);
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      if (errno == EWOULDBLOCK || errno == EINTR) return nullptr;
      throw_errno("flock", path);
    }
    // flock is released by the kernel when a holder dies, so acquisition
    // succeeding while the file still carries a holder tag proves that
    // holder crashed mid-critical-section.
    char buf[64];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0 && stale_reclaimed != nullptr) *stale_reclaimed = true;
    if (::ftruncate(fd, 0) != 0 || ::lseek(fd, 0, SEEK_SET) < 0) {
      ::close(fd);
      throw_errno("truncate lock", path);
    }
    const std::string tag = process_tag();
    if (::write(fd, tag.data(), tag.size()) < 0 || ::fsync(fd) != 0) {
      ::close(fd);
      throw_errno("write lock", path);
    }
    return std::make_unique<RealLock>(fd, path);
  }

  std::string process_tag() const override {
    return str_cat("pid:", ::getpid());
  }

  bool tag_alive(const std::string& tag) override {
    // Only "pid:<N>" tags can be judged; anything else is conservatively
    // alive. kill(pid, 0) probes existence: ESRCH proves death, EPERM
    // proves life (the process exists, just not ours to signal).
    if (tag.rfind("pid:", 0) != 0) return true;
    pid_t pid = 0;
    try {
      const unsigned long v = std::stoul(tag.substr(4));
      pid = static_cast<pid_t>(v);
      if (pid <= 0 || static_cast<unsigned long>(pid) != v) return true;
    } catch (const std::exception&) {
      return true;
    }
    return ::kill(pid, 0) == 0 || errno != ESRCH;
  }
};

}  // namespace

Vfs& real_vfs() {
  static RealVfs vfs;
  return vfs;
}

std::string dirname(const std::string& path) {
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void atomic_write_file(Vfs& vfs, const std::string& path,
                       const std::string& content) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = str_cat(path, ".tmp-", vfs.process_tag(), "-",
                                  seq.fetch_add(1));
  try {
    auto f = vfs.create(tmp, /*truncate=*/true);
    f->write(content);
    f->sync();
    f->close();
    vfs.rename(tmp, path);
    vfs.sync_dir(dirname(path));
  } catch (const VfsError&) {
    try {
      vfs.remove(tmp);
    } catch (const VfsError&) {
      // Recovery sweeps orphan temps; the original error matters more.
    }
    throw;
  }
}

// --- MemVfs ----------------------------------------------------------------

// Must live at namespace scope: MemVfs befriends this exact name.
class MemVfsFile : public VfsFile {
 public:
  MemVfsFile(MemVfs* vfs, std::string path)
      : vfs_(vfs), path_(std::move(path)) {}
  void write(const std::string& data) override;
  void sync() override;
  void close() override {}

 private:
  MemVfs* vfs_;
  std::string path_;
};

namespace {

class MemVfsLock : public VfsLock {
 public:
  explicit MemVfsLock(std::function<void()> release)
      : release_(std::move(release)) {}
  ~MemVfsLock() override { release_(); }

 private:
  std::function<void()> release_;
};

}  // namespace

bool MemVfs::exists(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

std::optional<std::string> MemVfs::read(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.data;
}

std::vector<std::string> MemVfs::list(const std::string& dir) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  const auto member = [&](const std::string& path) {
    if (path == dir) return;
    if (storage::dirname(path) == dir) {
      names.push_back(path.substr(path.rfind('/') + 1));
    }
  };
  for (const auto& [path, f] : files_) member(path);
  for (const auto& d : dirs_) member(d);
  std::sort(names.begin(), names.end());
  return names;
}

std::unique_ptr<VfsFile> MemVfs::create(const std::string& path,
                                        bool truncate) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    do_create(path, truncate);
    record({VfsOp::Kind::Create, path, "", "", truncate});
  }
  return std::make_unique<MemVfsFile>(this, path);
}

void MemVfs::mkdirs(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string prefix;
  for (const auto& part : split(path, '/')) {
    prefix += prefix.empty() && path[0] != '/' ? part : "/" + part;
    if (prefix.empty()) prefix = "/";
    dirs_.insert(prefix);
  }
  dirs_.insert(path);
  record({VfsOp::Kind::Mkdir, path, "", "", false});
}

void MemVfs::rename(const std::string& from, const std::string& to) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(from);
  if (it == files_.end()) {
    throw VfsError(VfsError::Code::NotFound,
                   str_cat("rename '", from, "': no such file"));
  }
  if (dirs_.count(storage::dirname(to)) == 0) {
    throw VfsError(VfsError::Code::NotFound,
                   str_cat("rename to '", to, "': no such directory"));
  }
  files_[to] = std::move(it->second);
  files_.erase(from);
  record({VfsOp::Kind::Rename, from, to, "", false});
}

bool MemVfs::remove(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  const bool existed = files_.erase(path) > 0;
  if (existed) record({VfsOp::Kind::Remove, path, "", "", false});
  return existed;
}

void MemVfs::sync_dir(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  record({VfsOp::Kind::SyncDir, path, "", "", false});
}

std::unique_ptr<VfsLock> MemVfs::try_lock(const std::string& path,
                                          bool* stale_reclaimed) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (stale_reclaimed != nullptr) *stale_reclaimed = false;
  if (held_locks_.count(path) > 0) return nullptr;
  const auto it = files_.find(path);
  if (it != files_.end() && !it->second.data.empty() &&
      stale_reclaimed != nullptr) {
    *stale_reclaimed = true;
  }
  // Mirror the real protocol: truncate, write the holder tag, sync. The
  // ops are recorded so a crash replay reproduces the stale lock file.
  do_create(path, /*truncate=*/true);
  record({VfsOp::Kind::Create, path, "", "", true});
  do_write(path, tag_);
  record({VfsOp::Kind::Write, path, "", tag_, false});
  do_sync(path);
  record({VfsOp::Kind::Sync, path, "", "", false});
  held_locks_[path] = tag_;
  const std::string tag = tag_;
  return std::make_unique<MemVfsLock>([this, path, tag] {
    const std::lock_guard<std::mutex> inner(mu_);
    const auto held = held_locks_.find(path);
    if (held == held_locks_.end() || held->second != tag) return;
    held_locks_.erase(held);
    do_create(path, /*truncate=*/true);  // empty = cleanly released
    record({VfsOp::Kind::Create, path, "", "", true});
    do_sync(path);
    record({VfsOp::Kind::Sync, path, "", "", false});
  });
}

void MemVfs::set_process_tag(std::string tag) {
  const std::lock_guard<std::mutex> lock(mu_);
  live_tags_.insert(tag);
  tag_ = std::move(tag);
}

void MemVfs::mark_tag_dead(const std::string& tag) {
  const std::lock_guard<std::mutex> lock(mu_);
  live_tags_.erase(tag);
  // The kernel releases a dead process's flocks; the lock files keep
  // whatever tag the holder wrote (stale-lock evidence).
  for (auto it = held_locks_.begin(); it != held_locks_.end();) {
    it = it->second == tag ? held_locks_.erase(it) : std::next(it);
  }
}

bool MemVfs::tag_alive(const std::string& tag) {
  const std::lock_guard<std::mutex> lock(mu_);
  return tag == tag_ || live_tags_.count(tag) > 0;
}

std::vector<VfsOp> MemVfs::trace() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

void MemVfs::apply(const VfsOp& op) {
  const std::lock_guard<std::mutex> lock(mu_);
  switch (op.kind) {
    case VfsOp::Kind::Create:
      do_create(op.path, op.truncate);
      return;
    case VfsOp::Kind::Write:
      do_write(op.path, op.data);
      return;
    case VfsOp::Kind::Sync:
      do_sync(op.path);
      return;
    case VfsOp::Kind::Rename:
      files_[op.path2] = std::move(files_[op.path]);
      files_.erase(op.path);
      return;
    case VfsOp::Kind::Remove:
      files_.erase(op.path);
      return;
    case VfsOp::Kind::Mkdir: {
      std::string prefix;
      for (const auto& part : split(op.path, '/')) {
        prefix += prefix.empty() && op.path[0] != '/' ? part : "/" + part;
        if (prefix.empty()) prefix = "/";
        dirs_.insert(prefix);
      }
      dirs_.insert(op.path);
      return;
    }
    case VfsOp::Kind::SyncDir:
      return;
  }
}

void MemVfs::crash(std::uint64_t variant) {
  const std::lock_guard<std::mutex> lock(mu_);
  robust::FaultSpec torn;
  torn.seed = variant;
  for (auto& [path, f] : files_) {
    const std::size_t tail = f.data.size() - f.synced;
    if (tail == 0) continue;
    std::size_t promote = 0;
    if (variant == 1) {
      promote = tail;  // the page cache flushed everything in time
    } else if (variant >= 2) {
      // A deterministic, per-file "how much did writeback manage" draw.
      promote = static_cast<std::size_t>(
          robust::fault_uniform(torn, "crash.writeback", path, 0, 7) *
          static_cast<double>(tail + 1));
      if (promote > tail) promote = tail;
    }
    f.data.resize(f.synced + promote);
    f.synced = f.data.size();
  }
  held_locks_.clear();  // the kernel releases a dead process's flocks
  // Machine death kills every simulated process. The current tag is
  // immediately live again: crash tests reuse one MemVfs as "the machine
  // after reboot", and the reopened process is the one doing the asking.
  live_tags_.clear();
  live_tags_.insert(tag_);
}

void MemVfs::install_file(const std::string& path,
                          const std::string& content) {
  const std::lock_guard<std::mutex> lock(mu_);
  files_[path] = File{content, content.size()};
  std::string prefix;
  for (const auto& part : split(storage::dirname(path), '/')) {
    prefix += prefix.empty() && path[0] != '/' ? part : "/" + part;
    if (prefix.empty()) prefix = "/";
    dirs_.insert(prefix);
  }
}

void MemVfs::do_create(const std::string& path, bool truncate) {
  if (dirs_.count(storage::dirname(path)) == 0) {
    throw VfsError(VfsError::Code::NotFound,
                   str_cat("create '", path, "': no such directory"));
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    files_[path] = File{};
  } else if (truncate) {
    it->second = File{};
  }
}

void MemVfs::do_write(const std::string& path, const std::string& data) {
  auto it = files_.find(path);
  ARTEMIS_CHECK_MSG(it != files_.end(), "write to uncreated file " << path);
  it->second.data += data;
}

void MemVfs::do_sync(const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) it->second.synced = it->second.data.size();
}

void MemVfs::record(VfsOp op) {
  if (record_) trace_.push_back(std::move(op));
}

MemVfs::File* MemVfs::find(const std::string& path) {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

void MemVfsFile::write(const std::string& data) {
  const std::lock_guard<std::mutex> lock(vfs_->mu_);
  vfs_->do_write(path_, data);
  vfs_->record({VfsOp::Kind::Write, path_, "", data, false});
}

void MemVfsFile::sync() {
  const std::lock_guard<std::mutex> lock(vfs_->mu_);
  vfs_->do_sync(path_);
  vfs_->record({VfsOp::Kind::Sync, path_, "", "", false});
}

std::unique_ptr<MemVfs> replay_prefix(const std::vector<VfsOp>& trace,
                                      std::size_t k, std::uint64_t variant) {
  auto vfs = std::make_unique<MemVfs>();
  for (std::size_t i = 0; i < k && i < trace.size(); ++i) {
    vfs->apply(trace[i]);
  }
  vfs->crash(variant);
  return vfs;
}

// --- FaultVfs --------------------------------------------------------------

// Must live at namespace scope: FaultVfs befriends this exact name.
class FaultVfsFile : public VfsFile {
 public:
  FaultVfsFile(FaultVfs* vfs, std::unique_ptr<VfsFile> base,
               std::string path)
      : vfs_(vfs), base_(std::move(base)), path_(std::move(path)) {}

  void write(const std::string& data) override;
  void sync() override;
  void close() override { base_->close(); }

 private:
  FaultVfs* vfs_;
  std::unique_ptr<VfsFile> base_;
  std::string path_;
};

namespace {

bool fs_site_enabled(const robust::FaultSpec& spec, const char* site) {
  return spec.site.empty() ||
         std::string(site).find(spec.site) != std::string::npos;
}

}  // namespace

void FaultVfs::check_crashed() const {
  if (crashed_.load(std::memory_order_relaxed)) {
    throw FsCrash("filesystem crashed (fs.crash_at reached)");
  }
}

bool FaultVfs::decide(const char* site, const std::string& path,
                      std::uint64_t op, double p,
                      std::uint64_t lane) const {
  if (p <= 0 || !fs_site_enabled(spec_, site)) return false;
  return robust::fault_uniform(spec_, site, path, static_cast<int>(op),
                               lane) < p;
}

std::uint64_t FaultVfs::mutating_op(const char* site,
                                    const std::string& path) {
  check_crashed();
  const std::uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
  if (spec_.fs_crash_at >= 0 &&
      op >= static_cast<std::uint64_t>(spec_.fs_crash_at)) {
    crashed_.store(true, std::memory_order_relaxed);
    counters_.crashed.fetch_add(1, std::memory_order_relaxed);
    throw FsCrash(str_cat("injected crash at fs op ", op, " (", site, " '",
                          path, "')"));
  }
  if (decide(site, path, op, spec_.fs_fail_p, 21)) {
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    throw VfsError(VfsError::Code::Io,
                   str_cat("injected EIO at ", site, " '", path, "' (op ",
                           op, ")"));
  }
  return op;
}

bool FaultVfs::exists(const std::string& path) {
  check_crashed();
  return base_.exists(path);
}

std::optional<std::string> FaultVfs::read(const std::string& path) {
  check_crashed();
  const std::uint64_t op = read_ops_.fetch_add(1, std::memory_order_relaxed);
  if (decide("fs.read", path, op, spec_.fs_fail_p, 25)) {
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    throw VfsError(VfsError::Code::Io,
                   str_cat("injected EIO at fs.read '", path, "'"));
  }
  return base_.read(path);
}

std::vector<std::string> FaultVfs::list(const std::string& dir) {
  check_crashed();
  return base_.list(dir);
}

std::unique_ptr<VfsFile> FaultVfs::create(const std::string& path,
                                          bool truncate) {
  mutating_op("fs.create", path);
  return std::make_unique<FaultVfsFile>(this, base_.create(path, truncate),
                                        path);
}

void FaultVfs::mkdirs(const std::string& path) {
  mutating_op("fs.mkdir", path);
  base_.mkdirs(path);
}

void FaultVfs::rename(const std::string& from, const std::string& to) {
  mutating_op("fs.rename", from);
  base_.rename(from, to);
}

bool FaultVfs::remove(const std::string& path) {
  mutating_op("fs.remove", path);
  return base_.remove(path);
}

void FaultVfs::sync_dir(const std::string& path) {
  mutating_op("fs.sync", path);
  base_.sync_dir(path);
}

std::unique_ptr<VfsLock> FaultVfs::try_lock(const std::string& path,
                                            bool* stale_reclaimed) {
  check_crashed();
  return base_.try_lock(path, stale_reclaimed);
}

bool FaultVfs::tag_alive(const std::string& tag) {
  check_crashed();
  return base_.tag_alive(tag);
}

void FaultVfs::reboot() {
  crashed_.store(false, std::memory_order_relaxed);
  ops_.store(0, std::memory_order_relaxed);
}

void FaultVfsFile::write(const std::string& data) {
  const std::uint64_t op = vfs_->mutating_op("fs.write", path_);
  const auto& spec = vfs_->spec_;
  if (data.size() >= 2) {
    if (vfs_->decide("fs.write", path_, op, spec.fs_enospc_p, 22)) {
      // ENOSPC tears: half the buffer reached the disk first.
      base_->write(data.substr(0, data.size() / 2));
      vfs_->counters_.enospc.fetch_add(1, std::memory_order_relaxed);
      throw VfsError(VfsError::Code::NoSpace,
                     str_cat("injected ENOSPC at fs.write '", path_,
                             "' (op ", op, ")"));
    }
    if (vfs_->decide("fs.write", path_, op, spec.fs_short_p, 23)) {
      const double u =
          robust::fault_uniform(spec, "fs.write", path_,
                                static_cast<int>(op), 24);
      const std::size_t cut =
          1 + static_cast<std::size_t>(u * static_cast<double>(
                                               data.size() - 1));
      base_->write(data.substr(0, cut));
      vfs_->counters_.short_writes.fetch_add(1, std::memory_order_relaxed);
      throw VfsError(VfsError::Code::Io,
                     str_cat("injected short write at '", path_, "' (",
                             cut, "/", data.size(), " bytes, op ", op,
                             ")"));
    }
  }
  base_->write(data);
}

void FaultVfsFile::sync() {
  vfs_->mutating_op("fs.sync", path_);
  base_->sync();
}

}  // namespace artemis::storage
