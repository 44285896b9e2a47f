#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "artemis/common/json.hpp"

namespace artemis::telemetry {

/// One key/value attribute attached to a span or event. Values are Json so
/// numbers stay numbers all the way into the sinks.
struct Attr {
  std::string key;
  Json value;
};

/// One recorded telemetry record, timestamped on the collector's steady
/// clock (nanoseconds since enable()).
struct Event {
  enum class Phase {
    Complete,  ///< a span: [ts_ns, ts_ns + dur_ns)
    Instant,   ///< a point event
  };
  Phase phase = Phase::Instant;
  const char* name = "";  ///< static string (call sites use literals)
  const char* cat = "";   ///< category: pipeline, tune, profile, sim, cache
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  ///< Complete only
  int tid = 0;              ///< collector-assigned thread index
  std::vector<Attr> args;
};

/// The process-wide telemetry collector. Disabled by default; every
/// instrumentation call site first checks `enabled()` (one relaxed atomic
/// load) and does nothing else when off, so an uninstrumented run pays no
/// clock reads, no locks and no allocation.
///
/// When enabled, each thread appends to its own buffer (registered lazily
/// through a thread_local handle), so instrumented code inside
/// common/parallel.hpp workers never contends on a global lock per event.
/// Buffers of exited threads are retired into the collector; snapshot()
/// merges live and retired buffers into one time-ordered stream.
class Collector {
 public:
  static Collector& global();

  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drop all recorded events and counters (buffers stay registered).
  void clear();

  /// Nanoseconds since enable() on the steady clock.
  std::int64_t now_ns() const;

  /// Append one event from the calling thread. No-op when disabled.
  void record(Event ev);

  /// Accumulate a named counter. No-op when disabled: the key is built
  /// only when telemetry is on.
  void counter_add(std::string_view name, std::int64_t delta);

  /// Merge every thread buffer into one stream sorted by start timestamp.
  std::vector<Event> snapshot() const;
  std::map<std::string, std::int64_t> counters() const;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    int tid = 0;
    std::vector<Event> events;
  };
  struct ThreadHandle;  ///< thread_local registration + exit retirement

  Collector() = default;
  ThreadBuffer* this_thread_buffer();

  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<Event> retired_;
  std::map<std::string, std::int64_t> counters_;
  int next_tid_ = 0;
};

/// True when the global collector is recording.
inline bool enabled() { return Collector::global().enabled(); }

/// RAII span: records a Complete event covering its lifetime. Constructed
/// disabled-cheap: when telemetry is off, the constructor is a single
/// atomic load. Attributes can be attached at construction or later via
/// arg() (e.g. an outcome only known at the end of the region).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "pipeline",
                std::vector<Attr> args = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string& key, Json value);

 private:
  bool active_ = false;
  Event ev_;
};

/// Record an instant event. No-op when disabled (args are only evaluated
/// by the caller; wrap expensive-arg call sites in `if (enabled())`).
void instant(const char* name, const char* cat = "pipeline",
             std::vector<Attr> args = {});

/// Accumulate a named counter on the global collector. No-op when off.
void counter_add(std::string_view name, std::int64_t delta = 1);

}  // namespace artemis::telemetry
