#pragma once

// Shared pieces of the perfbench program: command-line arguments, robust
// statistics, the metric report and its result line, and the span
// recorder used by traced runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "artemis/common/json.hpp"
#include "artemis/common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string state_dir;   ///< scratch for durable state, inside the checkout
  std::string trace_file;  ///< where a traced run writes its spans
  std::string commit;
};

// --- statistics --------------------------------------------------------------

/// Fisher-Yates shuffle driven by the run's seeded generator.
template <typename T>
void shuffle(std::vector<T>& v, artemis::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_u64() % i]);
  }
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Work and wall time summed over timed calls.
struct Tally {
  double work = 0;
  double seconds = 0;
  std::int64_t calls = 0;
  void add(double s, double w = 1) {
    seconds += s;
    work += w;
    ++calls;
  }
  double rate() const { return work / seconds; }
  double mean_s() const {
    return calls ? seconds / static_cast<double>(calls) : 0;
  }
};

/// Set-up cost: the CPU time of the set-up, repeated at points spread over
/// the run. On a shared 4-vCPU KVM guest a vCPU runs a call at one of two
/// speeds about 1.5x apart, switching within a second: repetitions made
/// back to back all fall in one mode, and a median of them jumps between
/// modes from run to run. Spread repetitions, and the mean of their middle
/// half, move smoothly with the time spent in each mode. CPU time leaves
/// out the host's steal, which made a few-millisecond set-up read 2x
/// slower in some runs of one set than in others.
class SetupTimes {
 public:
  /// Times one run of `setup` (process CPU time, all threads); what it
  /// builds is torn down by the caller, after the timing.
  void time(const std::function<void()>& setup);
  /// Mean of the middle half of the times; the median of fewer than four.
  double seconds() const;

 private:
  std::vector<double> times_;
};

// --- report ------------------------------------------------------------------

/// The metrics of one run plus its operation accounting. `emit()` prints an
/// environment line and, last, the one-line JSON result: correct,
/// attempted, failed and metrics.
class Report {
 public:
  /// A metric of the result line: one of BENCHMARK.json's end_to_end
  /// metrics in an untraced run, one of its per_layer metrics in a traced
  /// one. Every workload reports every metric of the list its run emits.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A number of one layer that only this workload measures. It goes to
  /// the environment record ("layers"), not to the result line.
  void layer_detail(const std::string& name, double value,
                    const std::string& unit);
  void detail(const std::string& key, artemis::Json value);
  /// Record one checked operation; a failure also keeps its reason.
  void op(bool ok, const std::string& what_failed = "");
  bool all_ok() const { return failed_ == 0 && attempted_ > 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// Prints the environment record, then the result line.
  void emit(const Args& args) const;

 private:
  std::vector<std::pair<std::string, artemis::Json>> metrics_;
  artemis::Json layers_ = artemis::Json::object();
  artemis::Json details_ = artemis::Json::object();
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the log
};

/// ru_maxrss of this process in MB.
double peak_rss_mb();
/// CPU time of this process, all threads, user and system, in seconds.
double process_cpu_s();
/// Time the hypervisor ran something else while a vCPU of this guest was
/// runnable ("steal" in /proc/stat), summed over vCPUs, in seconds.
double host_steal_s();
std::string cpu_model();

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder for traced runs. A span is one call the
/// benchmark makes into a layer's public function, named
/// "<layer>.<function>"; it has a start, an end, the span that contains it
/// and, on serve-mix, a request id. Spans are kept in memory and written
/// once, at exit. Recording is off (and a span costs two clock reads and no
/// allocation) unless enable() was called.
class Tracer {
 public:
  static constexpr std::int64_t kAutoParent = -2;
  static constexpr std::int64_t kNoParent = -1;

  struct Record {
    std::int64_t id = 0;
    std::int64_t parent = kNoParent;
    std::int64_t request = -1;
    std::string name;
    double start = 0;  ///< seconds since the tracer's epoch
    double end = 0;
    int thread = 0;
  };

  static Tracer& get();
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  std::size_t size() const;
  /// Writes the spans as a Chrome trace ("traceEvents") JSON file.
  void write(const std::string& path) const;

  /// Per span name: total self time (duration minus the part of it covered
  /// by child spans) and call count.
  struct SelfTime {
    double self_s = 0;
    double total_s = 0;
    std::int64_t calls = 0;
  };
  std::map<std::string, SelfTime> self_times() const;

  /// Cost of opening and closing one span while recording, in seconds.
  static double span_cost_s();

 private:
  friend class Span;
  void close(Record rec);
  /// Spans closed so far (a copy).
  std::vector<Record> records() const;

  std::atomic<bool> on_{false};
  std::atomic<std::int64_t> next_id_{0};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  ///< guards records_
  std::vector<Record> records_;
};

/// RAII span: times a call, and records it when tracing is on.
/// `seconds()` is valid after stop() or destruction and is measured in
/// untraced runs too, so the same object times a call either way.
class Span {
 public:
  explicit Span(const char* name, std::int64_t parent = Tracer::kAutoParent,
                std::int64_t request = -1);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  std::int64_t id() const { return id_; }

 private:
  const char* name_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = Tracer::kNoParent;
  std::int64_t request_ = -1;
  Clock::time_point t0_;
  double start_ = 0;
  double seconds_ = -1;
};

/// Tracing overhead measured on a call both kinds of run make: `batch`
/// runs `pairs` times with span recording off and as often with it on,
/// alternately, and the result is (median on - median off) / median off.
/// It can come out below zero when the overhead is below the noise.
double measured_trace_overhead(int pairs, const std::function<void()>& batch);

// --- workloads ---------------------------------------------------------------

int run_tune_paper(const Args& args, Report& report);
int run_serve_mix(const Args& args, Report& report);
int run_sim_measure(const Args& args, Report& report);

/// Tuner parallelism used by tune-paper and by one-shot artemisc: nproc.
int nproc();

}  // namespace perfbench
