#include "artemis/telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>

namespace artemis::telemetry {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Owns this thread's buffer registration. On thread exit the remaining
/// events are retired into the collector so spans recorded inside
/// short-lived parallel_for workers survive the join.
struct Collector::ThreadHandle {
  std::shared_ptr<ThreadBuffer> buffer;

  ~ThreadHandle() {
    if (!buffer) return;
    std::vector<Event> drained;
    {
      const std::lock_guard<std::mutex> lock(buffer->mu);
      drained = std::move(buffer->events);
      buffer->events.clear();
    }
    if (!drained.empty()) {
      auto& c = Collector::global();
      const std::lock_guard<std::mutex> lock(c.mu_);
      c.retired_.insert(c.retired_.end(),
                        std::make_move_iterator(drained.begin()),
                        std::make_move_iterator(drained.end()));
    }
    // The buffer itself stays in buffers_ (cheap, keeps tids stable); it
    // is empty from here on.
  }
};

Collector& Collector::global() {
  static Collector* c = new Collector();  // leaked: outlives all threads
  return *c;
}

Collector::ThreadBuffer* Collector::this_thread_buffer() {
  thread_local ThreadHandle handle;
  if (!handle.buffer) {
    auto buf = std::make_shared<ThreadBuffer>();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      buf->tid = next_tid_++;
      buffers_.push_back(buf);
    }
    handle.buffer = std::move(buf);
  }
  return handle.buffer.get();
}

void Collector::enable() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    epoch_ns_ = steady_ns();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Collector::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void Collector::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    retired_.clear();
    counters_.clear();
    epoch_ns_ = steady_ns();
    buffers = buffers_;
  }
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mu);
    b->events.clear();
  }
}

std::int64_t Collector::now_ns() const { return steady_ns() - epoch_ns_; }

void Collector::record(Event ev) {
  if (!enabled()) return;
  ThreadBuffer* buf = this_thread_buffer();
  ev.tid = buf->tid;
  const std::lock_guard<std::mutex> lock(buf->mu);
  buf->events.push_back(std::move(ev));
}

void Collector::counter_add(std::string_view name, std::int64_t delta) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[std::string(name)] += delta;
}

std::vector<Event> Collector::snapshot() const {
  std::vector<Event> out;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = retired_;
    buffers = buffers_;
  }
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mu);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     // Outer spans end later: longer duration first so a
                     // parent sorts before its same-start child.
                     return a.dur_ns > b.dur_ns;
                   });
  return out;
}

std::map<std::string, std::int64_t> Collector::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

Span::Span(const char* name, const char* cat, std::vector<Attr> args) {
  auto& c = Collector::global();
  if (!c.enabled()) return;
  active_ = true;
  ev_.phase = Event::Phase::Complete;
  ev_.name = name;
  ev_.cat = cat;
  ev_.ts_ns = c.now_ns();
  ev_.args = std::move(args);
}

Span::~Span() {
  if (!active_) return;
  auto& c = Collector::global();
  ev_.dur_ns = c.now_ns() - ev_.ts_ns;
  c.record(std::move(ev_));
}

void Span::arg(const std::string& key, Json value) {
  if (!active_) return;
  ev_.args.push_back({key, std::move(value)});
}

void instant(const char* name, const char* cat, std::vector<Attr> args) {
  auto& c = Collector::global();
  if (!c.enabled()) return;
  Event ev;
  ev.phase = Event::Phase::Instant;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = c.now_ns();
  ev.args = std::move(args);
  c.record(std::move(ev));
}

void counter_add(std::string_view name, std::int64_t delta) {
  Collector::global().counter_add(name, delta);
}

}  // namespace artemis::telemetry
