#include "artemis/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "artemis/telemetry/telemetry.hpp"

namespace artemis {

namespace {

/// Capacity bound of one participant's local queue. Refills never exceed
/// it, so the memory held in queues is O(parallelism * kQueueCapacity)
/// regardless of job size.
constexpr std::int64_t kQueueCapacity = 64;

std::atomic<int> g_default_jobs{0};

/// Set while a thread executes tasks for any pool (including the
/// for_each caller); nested parallel regions check it and run inline.
thread_local bool t_inside_worker = false;

int hardware_jobs() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs < 0 ? 0 : jobs, std::memory_order_relaxed);
}

int default_jobs() {
  const int jobs = g_default_jobs.load(std::memory_order_relaxed);
  return jobs > 0 ? jobs : hardware_jobs();
}

bool TaskPool::inside_worker() { return t_inside_worker; }

/// One in-flight for_each: the shared range cursor, per-participant
/// bounded queues, and completion accounting.
struct Job {
  std::int64_t n = 0;
  const std::function<void(std::int64_t)>* fn = nullptr;
  std::int64_t grain = 1;

  std::atomic<std::int64_t> cursor{0};     ///< next unclaimed range start
  std::atomic<std::int64_t> completed{0};  ///< tasks fully executed
  std::atomic<std::int64_t> steals{0};
  std::atomic<bool> failed{false};
  std::atomic<int> joined{1};  ///< queue slots handed out (0 = caller)

  struct Queue {
    std::mutex mu;
    std::deque<std::int64_t> items;
  };
  std::vector<Queue> queues;

  std::mutex error_mu;
  std::exception_ptr error;

  explicit Job(std::int64_t total, int participants,
               const std::function<void(std::int64_t)>& f)
      : n(total), fn(&f), queues(static_cast<std::size_t>(participants)) {
    grain = std::max<std::int64_t>(
        1, std::min(kQueueCapacity, total / (participants * 4)));
  }

  /// Refill `mine` with one batch from the shared cursor; returns the
  /// first index of the batch, or -1 when the range is exhausted.
  std::int64_t refill(Queue& mine) {
    const std::int64_t start = cursor.fetch_add(grain);
    if (start >= n) return -1;
    const std::int64_t end = std::min(start + grain, n);
    if (end - start > 1) {
      const std::lock_guard<std::mutex> lock(mine.mu);
      for (std::int64_t i = start + 1; i < end; ++i) mine.items.push_back(i);
    }
    return start;
  }

  std::int64_t pop_own(Queue& mine) {
    const std::lock_guard<std::mutex> lock(mine.mu);
    if (mine.items.empty()) return -1;
    const std::int64_t i = mine.items.front();
    mine.items.pop_front();
    return i;
  }

  /// Steal one task from the back of another participant's queue.
  std::int64_t steal(std::size_t self) {
    for (std::size_t off = 1; off < queues.size(); ++off) {
      Queue& victim = queues[(self + off) % queues.size()];
      const std::lock_guard<std::mutex> lock(victim.mu);
      if (victim.items.empty()) continue;
      const std::int64_t i = victim.items.back();
      victim.items.pop_back();
      steals.fetch_add(1, std::memory_order_relaxed);
      return i;
    }
    return -1;
  }

  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::move(e);
    }
    failed.store(true, std::memory_order_relaxed);
  }

  /// Claim and execute tasks until neither the cursor, the own queue, nor
  /// any victim has work (or the job failed).
  void work(std::size_t slot) {
    Queue& mine = queues[slot];
    t_inside_worker = true;
    while (!failed.load(std::memory_order_relaxed)) {
      std::int64_t i = pop_own(mine);
      if (i < 0) i = refill(mine);
      if (i < 0) i = steal(slot);
      if (i < 0) break;
      try {
        (*fn)(i);
      } catch (...) {
        fail(std::current_exception());
      }
      completed.fetch_add(1, std::memory_order_release);
    }
    t_inside_worker = false;
  }

  bool done() const {
    return completed.load(std::memory_order_acquire) >= n ||
           failed.load(std::memory_order_relaxed);
  }
};

struct TaskPool::Impl {
  std::mutex mu;
  std::condition_variable wake;      ///< workers park here between jobs
  std::condition_variable finished;  ///< for_each caller waits here
  Job* job = nullptr;                ///< published job, or nullptr
  std::uint64_t job_seq = 0;
  int active = 0;  ///< workers currently inside job->work()
  bool stop = false;
  std::vector<std::thread> threads;

  void worker_loop() {
    std::uint64_t seen_seq = 0;
    for (;;) {
      Job* j = nullptr;
      std::size_t slot = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        wake.wait(lock, [&] {
          return stop || (job != nullptr && job_seq != seen_seq);
        });
        if (stop) return;
        seen_seq = job_seq;
        const int idx = job->joined.fetch_add(1);
        if (idx >= static_cast<int>(job->queues.size())) continue;
        slot = static_cast<std::size_t>(idx);
        j = job;
        ++active;
      }
      j->work(slot);
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (--active == 0) finished.notify_all();
      }
    }
  }
};

TaskPool::TaskPool(int parallelism)
    : parallelism_(std::max(1, parallelism)) {
  if (parallelism_ < 2) return;
  impl_ = std::make_unique<Impl>();
  impl_->threads.reserve(static_cast<std::size_t>(parallelism_ - 1));
  for (int w = 1; w < parallelism_; ++w) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
  telemetry::counter_add("parallel.pools");
}

TaskPool::~TaskPool() {
  if (!impl_) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (auto& t : impl_->threads) t.join();
}

void TaskPool::for_each(std::int64_t n,
                        const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  if (!impl_ || n == 1 || t_inside_worker) {
    // Serial fallback: tiny jobs, a degenerate pool, or a nested region
    // (one level of parallelism wins; see the class comment).
    const bool was_inside = t_inside_worker;
    t_inside_worker = true;
    struct Restore {
      bool prev;
      ~Restore() { t_inside_worker = prev; }
    } restore{was_inside};
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job(n, parallelism_, fn);
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = &job;
    ++impl_->job_seq;
  }
  impl_->wake.notify_all();

  // The caller is participant 0.
  job.work(0);

  // Unpublish so no late-waking worker joins, then wait for the workers
  // that did join to drain the tasks they already claimed.
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->job = nullptr;
    impl_->finished.wait(lock, [&] { return impl_->active == 0; });
  }

  telemetry::counter_add("parallel.tasks", n);
  const std::int64_t steals = job.steals.load(std::memory_order_relaxed);
  if (steals > 0) telemetry::counter_add("parallel.steals", steals);

  if (job.error) std::rethrow_exception(job.error);
}

int parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                 int jobs) {
  const int workers = static_cast<int>(
      std::min<std::int64_t>(jobs > 0 ? jobs : default_jobs(), n));
  if (workers < 2 || TaskPool::inside_worker()) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return 1;
  }
  TaskPool pool(workers);
  pool.for_each(n, fn);
  return workers;
}

}  // namespace artemis
