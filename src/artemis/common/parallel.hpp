#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace artemis {

/// --- process-wide parallelism default ---------------------------------------
///
/// The `--jobs` knob: the simulator's sweeps (parallel_for with jobs 0)
/// size their pools from it. 0 means "resolve to hardware concurrency";
/// callers that want the serial path pass 1.

void set_default_jobs(int jobs);
/// The resolved default: always >= 1.
int default_jobs();

/// A reusable work-stealing task pool with bounded per-worker queues.
///
/// One pool instance represents one level of parallelism: `parallelism`
/// counts the calling thread, so TaskPool(8) spawns 7 worker threads and
/// for_each() runs with 8 concurrent participants. Workers park on a
/// condition variable between jobs, so a pool can span many for_each()
/// calls without re-spawning threads.
///
/// Scheduling: each participant owns a bounded deque of task indices,
/// refilled in batches from a shared range cursor; a participant whose
/// queue and the shared range are both empty steals from the back of a
/// victim's queue. Task *completion order* is therefore nondeterministic —
/// callers that need deterministic results must reduce results by task
/// index, not by completion order.
///
/// Nesting: for_each() called from inside a pool worker (any pool) runs
/// the loop inline and serially. One level of parallelism wins; inner
/// code never blocks on an outer pool, so nesting cannot deadlock.
class TaskPool {
 public:
  /// `parallelism` includes the calling thread; values < 2 create a pool
  /// that runs everything inline.
  explicit TaskPool(int parallelism);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total participants (worker threads + the caller of for_each).
  int parallelism() const { return parallelism_; }

  /// Run fn(i) for i in [0, n) across the pool; blocks until every
  /// claimed task finished. The first exception thrown by fn is rethrown
  /// after the join (remaining unclaimed tasks are abandoned).
  void for_each(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// True on a thread currently executing pool tasks (including the
  /// for_each caller while it participates). Used to serialize nested
  /// parallel regions.
  static bool inside_worker();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int parallelism_ = 1;
};

/// Run fn(i) for i in [0, n) across a transient pool of `jobs` workers
/// (0 = default_jobs()), clamped to n. Runs serially below 2 workers or
/// inside a pool worker. Returns the worker count that ran. The
/// simulator's block sweep and reference slabs both size their threads
/// here; their tasks write disjoint cells, so the join is the only
/// synchronization.
int parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                 int jobs = 0);

}  // namespace artemis
