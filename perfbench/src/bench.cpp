#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <ctime>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "artemis/sim/native/native.hpp"

namespace perfbench {

using artemis::Json;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

void SetupTimes::time(const std::function<void()>& setup) {
  const double cpu0 = process_cpu_s();
  setup();
  times_.push_back(process_cpu_s() - cpu0);
}

double SetupTimes::seconds() const {
  if (times_.size() < 4) return median(times_);
  std::vector<double> v = times_;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// --- report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json m = Json::object();
  m.set("value", Json(value));
  m.set("unit", Json(unit));
  metrics_.emplace_back(name, std::move(m));
}

void Report::layer_detail(const std::string& name, double value,
                          const std::string& unit) {
  Json m = Json::object();
  m.set("value", Json(value));
  m.set("unit", Json(unit));
  layers_.set(name, std::move(m));
}

void Report::detail(const std::string& key, Json value) {
  details_.set(key, std::move(value));
}

void Report::op(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what_failed);
}

void Report::emit(const Args& args) const {
  Json env = Json::object();
  env.set("workload", Json(args.workload));
  env.set("seed", Json(static_cast<std::int64_t>(args.seed)));
  env.set("seconds", Json(args.seconds));
  env.set("trace", Json(args.trace));
  env.set("nproc", Json(nproc()));
  env.set("cpu_model", Json(cpu_model()));
  env.set("native_tier", Json(artemis::sim::native::tier_name(
                             artemis::sim::native::active_tier())));
  env.set("state_dir", Json(args.state_dir));
  env.set("commit", Json(args.commit));
  env.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  Json failures = Json::array();
  for (const auto& f : failures_) failures.push_back(Json(f));
  env.set("failures", std::move(failures));
  env.set("details", details_);
  if (layers_.size() > 0) env.set("layers", layers_);
  std::printf("perfbench-env %s\n", env.dump().c_str());

  Json metrics = Json::object();
  for (const auto& [name, m] : metrics_) metrics.set(name, m);
  Json result = Json::object();
  result.set("correct", Json(all_ok()));
  result.set("attempted", Json(attempted_));
  result.set("failed", Json(failed_));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// --- tracing -----------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> t_open_spans;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::int64_t current_span() {
  return t_open_spans.empty() ? Tracer::kNoParent : t_open_spans.back();
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::close(Record rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::write(const std::string& path) const {
  Json events = Json::array();
  for (const auto& r : records()) {
    Json e = Json::object();
    e.set("name", Json(r.name));
    e.set("cat", Json(r.name.substr(0, r.name.find('.'))));
    e.set("ph", Json("X"));
    e.set("ts", Json(r.start * 1e6));
    e.set("dur", Json((r.end - r.start) * 1e6));
    e.set("pid", Json(1));
    e.set("tid", Json(r.thread));
    Json a = Json::object();
    a.set("id", Json(r.id));
    a.set("parent", Json(r.parent));
    if (r.request >= 0) a.set("request", Json(r.request));
    e.set("args", std::move(a));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  const std::vector<Record> recs = records();
  std::map<std::int64_t, std::vector<const Record*>> children;
  for (const auto& r : recs) {
    if (r.parent >= 0) children[r.parent].push_back(&r);
  }
  std::map<std::string, SelfTime> out;
  for (const auto& r : recs) {
    // Union of the child intervals, clipped to this span: children may run
    // concurrently on pool workers, so overlapping time counts once.
    std::vector<std::pair<double, double>> iv;
    if (auto it = children.find(r.id); it != children.end()) {
      for (const Record* c : it->second) {
        iv.emplace_back(std::max(c->start, r.start), std::min(c->end, r.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SelfTime& s = out[r.name];
    s.total_s += r.end - r.start;
    s.self_s += std::max(0.0, (r.end - r.start) - covered);
    ++s.calls;
  }
  return out;
}

double Tracer::span_cost_s() {
  Tracer& t = get();
  const bool was_on = t.on();
  t.enable(true);
  std::size_t before = t.size();
  constexpr int kProbes = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kProbes; ++i) {
    Span s("trace.probe");
  }
  const double cost = seconds_since(t0) / kProbes;
  {
    const std::lock_guard<std::mutex> lock(t.mu_);
    t.records_.resize(before);
  }
  t.enable(was_on);
  return cost;
}

double measured_trace_overhead(int pairs,
                               const std::function<void()>& batch) {
  Tracer& t = Tracer::get();
  const bool was_on = t.on();
  std::vector<double> off, on;
  for (int i = 0; i < pairs; ++i) {
    for (const bool record : {false, true}) {
      t.enable(record);
      const auto t0 = Clock::now();
      batch();
      (record ? on : off).push_back(seconds_since(t0));
    }
  }
  t.enable(was_on);
  return median(on) / median(off) - 1.0;
}

Span::Span(const char* name, std::int64_t parent, std::int64_t request)
    : name_(name), request_(request), t0_(Clock::now()) {
  Tracer& t = Tracer::get();
  if (!t.on()) return;
  parent_ = parent == Tracer::kAutoParent ? current_span() : parent;
  id_ = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  start_ = std::chrono::duration<double>(t0_ - t.epoch_).count();
  t_open_spans.push_back(id_);
}

double Span::stop() {
  if (seconds_ >= 0) return seconds_;
  const auto t1 = Clock::now();
  seconds_ = std::chrono::duration<double>(t1 - t0_).count();
  if (id_ >= 0) {
    Tracer& t = Tracer::get();
    if (!t_open_spans.empty() && t_open_spans.back() == id_) {
      t_open_spans.pop_back();
    }
    Tracer::Record rec;
    rec.id = id_;
    rec.parent = parent_;
    rec.request = request_;
    rec.name = name_;
    rec.start = start_;
    rec.end = std::chrono::duration<double>(t1 - t.epoch_).count();
    rec.thread = thread_index();
    t.close(std::move(rec));
  }
  return seconds_;
}

}  // namespace perfbench
