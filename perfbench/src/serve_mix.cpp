// serve-mix: the artemisd daemon under a closed loop of 2 client
// connections. The daemon is an in-process ArtemisService + SocketServer,
// wired as tools/artemisd.cpp wires it, with its plan store and journal
// directory in a storage::MemVfs seen through the counting Vfs: the
// benchmark may write only inside its checkout, whose disk made one cold
// tune take 1.8-3.8 s of fsyncs (0.6 s on tmpfs), and whose filesystem
// slowed the set-up of each later run of a set as the journals of the
// earlier ones (~200 MB a run) churned through it. Its tuner runs at jobs
// = nproc / 2, so the tuner and the two clients keep at most nproc threads
// busy.

#include <cctype>
#include <filesystem>
#include <thread>

#include "artemis/common/parallel.hpp"
#include "artemis/common/rng.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/dsl/printer.hpp"
#include "artemis/ir/content_hash.hpp"
#include "artemis/service/socket_server.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/stencils/random_stencil.hpp"
#include "bench.hpp"
#include "counting_vfs.hpp"

namespace perfbench {

using namespace artemis;

namespace {

constexpr int kClients = 2;
constexpr double kMixedWarmupS = 2.0;

enum Kind { kHit, kCold, kCompile, kRun, kKinds };
const char* kind_name(int k) {
  static const char* names[] = {"tune_hit", "tune_cold", "compile", "run"};
  return names[k];
}

// The request mix: mostly store hits (the read path a busy daemon serves),
// a trickle of never-seen programs (the write path: tuner, journal, store
// put), and compiles and runs beside them. The shares are exact counts in
// every block of kBlock consecutive requests of a client, shuffled within
// the block by the seed. Drawn one request at a time, the number of cold
// tunes in a 20 s run varied by about 8%, and cold tunes take most of a
// client's time, so the request rate moved with it.
constexpr int kBlock = 50;
constexpr int kPerBlock[kKinds] = {39, 1, 5, 5};  // 78%, 2%, 10%, 10%

class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed) {}
  int next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

 private:
  void refill() {
    block_.clear();
    for (int k = 0; k < kKinds; ++k) block_.insert(block_.end(), kPerBlock[k], k);
    shuffle(block_, rng_);
    pos_ = 0;
  }

  Rng rng_;
  std::vector<int> block_;
  std::size_t pos_ = 0;
};

std::string request(const char* method, const std::string& source,
                    std::int64_t id) {
  Json params = Json::object();
  params.set("source", Json(source));
  Json req = Json::object();
  req.set("id", Json(id));
  req.set("method", Json(method));
  req.set("params", std::move(params));
  return req.dump();
}

/// A fixed 2-stage random_program structure whose decimal literals the
/// seed fills in. Structure decides what a program costs to parse, hash,
/// tune and serve; literals decide its content hash. Keeping the
/// structures fixed and seeding the literals gives every seed its own
/// programs (none of them in the store of another run) at the same cost,
/// so the per-class latencies do not depend on which programs a seed drew.
class Template {
 public:
  /// The `n`th 2-stage program drawn from generator seeds `base`, `base+1`...
  static std::vector<Template> draw(std::uint64_t base, std::size_t n) {
    stencils::RandomStencilOptions o;
    o.max_stages = 2;
    std::vector<Template> out;
    for (std::uint64_t s = base; out.size() < n; ++s) {
      Rng rng(s);
      const ir::Program p = stencils::random_program(rng, o);
      if (p.steps.size() == 2) out.push_back(Template(dsl::print_program(p)));
    }
    return out;
  }

  /// The program with seeded literals; a non-negative `tag` replaces the
  /// first literal with a value unique to the tag (content hashes keep six
  /// significant digits, the literals four decimals).
  std::string fill(Rng& rng, std::int64_t tag = -1) const {
    std::string out = pieces_[0];
    for (std::size_t i = 1; i < pieces_.size(); ++i) {
      const double v = i == 1 && tag >= 0
                           ? 0.1 + 1e-4 * static_cast<double>(tag % 8000)
                           : 0.1 + 0.8999 * rng.uniform();
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", v);
      out += buf;
      out += pieces_[i];
    }
    return out;
  }

 private:
  /// Splits DSL text around its decimal literals ("0.8848..."); integers
  /// (extents, offsets) stay in the pieces.
  explicit Template(const std::string& text) : pieces_(1) {
    const auto digit = [&](std::size_t i) {
      return i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
    };
    for (std::size_t i = 0; i < text.size();) {
      const bool starts_number =
          digit(i) &&
          (i == 0 || !std::isalnum(static_cast<unsigned char>(text[i - 1])));
      std::size_t j = i;
      while (starts_number && digit(j)) ++j;
      if (starts_number && j < text.size() && text[j] == '.') {
        for (++j; digit(j); ++j) {
        }
        pieces_.emplace_back();
        i = j;
        continue;
      }
      pieces_.back() += text[i++];
    }
  }

  std::vector<std::string> pieces_;
};

struct HotProgram {
  std::string name;
  std::string source;
  std::string tune_req, compile_req, run_req;
  std::string plan_bytes;  ///< from its cold (publishing) response
};

/// Runs go round-robin over the first hot programs, the three paper
/// stencils at 16^3: run cost is grid work, and a fixed set keeps it the
/// same for every seed.
constexpr std::size_t kRunPrograms = 3;

/// The hot set: three paper stencils at 16^3, chosen because they are the
/// cheapest of the table to tune (the warm-up publishes every hot program
/// through the daemon's cold path), plus 12 fixed 2-stage random structures
/// with seeded literals. Its order is its popularity ranking.
std::vector<HotProgram> make_hot_set(std::uint64_t seed) {
  std::vector<HotProgram> hot;
  for (const char* name : {"7pt-smoother", "helmholtz", "miniflux"}) {
    hot.push_back({name, stencils::benchmark(name).dsl(16), {}, {}, {}, {}});
  }
  Rng rng(seed ^ 0x5EED0F1107ull);
  int i = 0;
  for (const Template& t : Template::draw(0x407000, 12)) {
    hot.push_back({str_cat("random", i++), t.fill(rng), {}, {}, {}, {}});
  }
  for (std::size_t h = 0; h < hot.size(); ++h) {
    const auto id = static_cast<std::int64_t>(h);
    hot[h].tune_req = request("tune", hot[h].source, id);
    hot[h].compile_req = request("compile", hot[h].source, id);
    hot[h].run_req = request("run", hot[h].source, id);
  }
  return hot;
}

/// Never-seen programs: four fixed 2-stage structures, taken round-robin,
/// each cold program with seeded literals and a first literal unique to
/// its index. Each structure tunes in 0.1-0.4 s at jobs 2.
class ColdPrograms {
 public:
  static constexpr std::size_t kStructures = 4;
  explicit ColdPrograms(std::uint64_t seed)
      : seed_(seed), templates_(Template::draw(0xC01D0000, kStructures)) {}

  static std::size_t structure(std::uint64_t index) { return index % kStructures; }
  std::string source(std::uint64_t index) const {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + index);
    return templates_[structure(index)].fill(rng,
                                             static_cast<std::int64_t>(index));
  }

 private:
  std::uint64_t seed_;
  std::vector<Template> templates_;
};

/// Skewed popularity: Zipf (s = 1) over the hot set's fixed order. The
/// seed draws the requests; a fixed ranking keeps the hit mix, and so the
/// hit median, the same from seed to seed.
class Popularity {
 public:
  explicit Popularity(std::size_t n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t pick(Rng& rng) const {
    const double u = rng.uniform();
    std::size_t r = 0;
    while (r + 1 < cdf_.size() && cdf_[r] < u) ++r;
    return r;
  }

 private:
  std::vector<double> cdf_;
};

/// The daemon, wired as tools/artemisd.cpp wires it, plus its clients.
class Daemon {
 public:
  Daemon(const std::string& dir, int jobs)
      : vfs_(mem_),
        svc_(options(dir, jobs, vfs_)),
        server_(svc_, dir + "/d.sock"),
        thread_([this] { server_.serve(); }) {
    try {
      for (int c = 0; c < kClients; ++c) {
        clients_.push_back(
            std::make_unique<service::UnixClient>(server_.socket_path()));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  service::ArtemisService& service() { return svc_; }
  service::UnixClient& client(int c) { return *clients_[c]; }
  CountingVfs& vfs() { return vfs_; }

 private:
  static service::ServiceOptions options(const std::string& dir, int jobs,
                                         storage::Vfs& vfs) {
    service::ServiceOptions o;
    o.context.jobs = jobs;
    o.context.vfs = &vfs;
    o.context.store_root = dir + "/store";
    o.journal_dir = dir + "/wal";
    std::filesystem::create_directories(dir);  // for the socket
    return o;
  }

  void stop() {
    clients_.clear();
    server_.stop();
    thread_.join();
  }

  storage::MemVfs mem_;
  CountingVfs vfs_;
  service::ArtemisService svc_;
  service::SocketServer server_;
  std::thread thread_;
  std::vector<std::unique_ptr<service::UnixClient>> clients_;
};

struct Sample {
  int kind = kHit;
  std::size_t group = 0;  ///< hot program, cold structure or run program
  double latency_s = 0;
};

/// Checks one response; returns "" when it is correct.
std::string check_response(const Json& resp, int kind, const HotProgram* hot) {
  if (!resp.contains("ok") || !resp["ok"].as_bool()) {
    return str_cat(kind_name(kind), ": error response ", resp.dump());
  }
  const Json& result = resp["result"];
  if (kind == kHit) {
    if (!result["cached"].as_bool()) {
      return str_cat(hot->name, ": hot program not served from the store");
    }
    if (result["plan_bytes"].as_string() != hot->plan_bytes) {
      return str_cat(hot->name, ": hit plan bytes differ from its cold tune");
    }
  } else if (kind == kCold && result["cached"].as_bool()) {
    return "never-seen program answered from the store";
  } else if (kind == kRun) {
    for (const auto& c : result["checks"].items()) {
      if (c["max_abs_diff"].as_double() != 0) {
        return str_cat("run of ", hot->name, ": ", c["array"].as_string(),
                       " differs from the reference by ",
                       c["max_abs_diff"].as_double());
      }
    }
  }
  return "";
}

struct Phase {
  std::vector<Sample> samples;  ///< requests sent in the timed phase
  std::int64_t completed = 0;   ///< requests answered in the timed phase
  double timed_s = 0;
  double timed_cpu_s = 0;  ///< process CPU time (daemon and clients)
};

/// The closed loop: each client sends its next request as soon as the
/// previous answer arrives. The first `warmup_s` seconds run the same
/// stream untimed on the same threads, so nothing idles between the
/// warm-up and the timed phase.
Phase closed_loop(Daemon& d, const std::vector<HotProgram>& hot,
                  const ColdPrograms& colds,
                  std::atomic<std::uint64_t>& next_cold, std::uint64_t seed,
                  double warmup_s, double timed_s, Report& report) {
  const Popularity pop(hot.size());
  std::mutex mu;  ///< guards report and phase
  Phase phase;
  phase.timed_s = timed_s;
  const auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const auto t0 = after(Clock::now(), warmup_s);
  const auto t_end = after(t0, timed_s);
  std::atomic<std::int64_t> next_request{0};

  auto client = [&](int c) {
    Rng rng(seed * 31 + static_cast<std::uint64_t>(c) + 1);
    Schedule schedule(seed * 131 + static_cast<std::uint64_t>(c) + 7);
    std::vector<Sample> mine;
    std::vector<std::string> errors;
    std::int64_t checked = 0, completed = 0;
    std::size_t runs = 0;
    while (Clock::now() < t_end) {
      const int kind = schedule.next();
      const std::int64_t rid = next_request.fetch_add(1);
      const HotProgram* target = nullptr;
      std::size_t group = 0;
      std::string cold_req;
      const std::string* payload = &cold_req;
      if (kind == kCold) {
        const std::uint64_t index = next_cold.fetch_add(1);
        group = ColdPrograms::structure(index);
        cold_req = request("tune", colds.source(index), rid);
      } else if (kind == kRun) {
        group = runs++ % kRunPrograms;
        target = &hot[group];
        payload = &target->run_req;
      } else {
        group = pop.pick(rng);
        target = &hot[group];
        payload = kind == kHit ? &target->tune_req : &target->compile_req;
      }
      const auto ts = Clock::now();
      Span span("service.request", Tracer::kNoParent, rid);
      const std::string resp = d.client(c).round_trip(*payload);
      const double lat = span.stop();
      const auto te = Clock::now();
      const std::string err = check_response(Json::parse(resp), kind, target);
      ++checked;
      if (!err.empty()) errors.push_back(err);
      if (te >= t0 && te <= t_end) ++completed;
      if (ts >= t0) mine.push_back({kind, group, lat});
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (std::int64_t i = static_cast<std::int64_t>(errors.size());
         i < checked; ++i) {
      report.op(true);
    }
    for (const auto& e : errors) report.op(false, e);
    phase.completed += completed;
    phase.samples.insert(phase.samples.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  std::this_thread::sleep_until(t0);
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_until(t_end);
  phase.timed_cpu_s = process_cpu_s() - cpu0;
  for (auto& t : threads) t.join();
  return phase;
}

/// Latencies of one request kind, all together and split by group.
struct ClassLatency {
  std::vector<double> all;
  std::vector<std::vector<double>> by_group;

  ClassLatency(const Phase& p, int kind) {
    for (const auto& s : p.samples) {
      if (s.kind != kind) continue;
      all.push_back(s.latency_s);
      if (s.group >= by_group.size()) by_group.resize(s.group + 1);
      by_group[s.group].push_back(s.latency_s);
    }
  }
};

/// Step 2 of the traced run: the request classes replayed one level down
/// through ArtemisService::handle in-process, and the plan store timed
/// directly. Returns the median in-process time of a hit.
double replay_layers(Daemon& d, const std::vector<HotProgram>& hot,
                     const ColdPrograms& colds,
                     std::atomic<std::uint64_t>& next_cold,
                     const std::string& state_dir, Report& report) {
  service::ArtemisService& svc = d.service();
  std::vector<double> handle[kKinds];
  const auto timed_handle = [&](int kind, const std::string& req) {
    Span s("service.handle");
    (void)svc.handle(req);
    handle[kind].push_back(s.stop());
  };
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& h : hot) {
      timed_handle(kHit, h.tune_req);
      timed_handle(kCompile, h.compile_req);
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < kRunPrograms; ++i) {
      timed_handle(kRun, hot[i].run_req);
    }
  }
  for (std::size_t i = 0; i < 2 * ColdPrograms::kStructures; ++i) {
    timed_handle(kCold, request("tune", colds.source(next_cold++), 0));
  }
  for (int k = 0; k < kKinds; ++k) {
    report.layer_detail(str_cat("service.handle_us.", kind_name(k)),
                        median(handle[k]) * 1e6, "us");
  }

  std::vector<double> parse, hash, compile;
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& h : hot) {
      ir::Program prog;
      {
        Span s("dsl.parse");
        prog = dsl::parse(h.source);
        parse.push_back(s.stop());
      }
      {
        Span s("ir.content_hash");
        (void)ir::content_hash(prog);
        hash.push_back(s.stop());
      }
      Span s("driver.compile");
      (void)svc.context().compile(h.source);
      compile.push_back(s.stop());
    }
  }
  report.layer_detail("dsl.parse_us", median(parse) * 1e6, "us");
  report.layer_detail("ir.hash_us", median(hash) * 1e6, "us");
  report.layer_detail("driver.compile_us", median(compile) * 1e6, "us");

  storage::PlanStore* store = svc.context().store();
  std::vector<double> get, put;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& h : hot) {
      const auto info = svc.context().compile(h.source);
      std::optional<storage::PlanRecord> rec;
      {
        Span s("storage.get");
        rec = store->get(info.plan_key);
        get.push_back(s.stop());
      }
      if (rep % 4 == 0 && rec) {
        Span s("storage.put");
        report.op(store->put(*rec), "plan store put failed");
        put.push_back(s.stop());
      }
    }
  }
  report.layer_detail("storage.get_us", median(get) * 1e6, "us");
  report.layer_detail("storage.put_ms", median(put) * 1e3, "ms");

  // What one real fsync costs on the checkout's filesystem, which the
  // daemon's in-memory state does not touch.
  std::vector<double> sync;
  auto file = storage::real_vfs().create(state_dir + "/sync-probe", true);
  for (int i = 0; i < 16; ++i) {
    file->write(std::string(4096, 'x'));
    Span s("storage.sync");
    file->sync();
    sync.push_back(s.stop());
  }
  file->close();
  report.layer_detail("storage.sync_us", median(sync) * 1e6, "us");

  // Tracing overhead on the call both kinds of run make: a client's hit
  // round trip, each wrapped in a span.
  report.metric("trace.overhead_share", measured_trace_overhead(20, [&] {
                  for (int i = 0; i < 200; ++i) {
                    Span s("service.request");
                    (void)d.client(0).round_trip(hot[i % hot.size()].tune_req);
                  }
                }),
                "ratio");
  return median(handle[kHit]);
}

std::uint64_t total_syncs(const CountingVfs& vfs) {
  std::uint64_t n = 0;
  for (int c = 0; c < CountingVfs::kClasses; ++c) {
    n += vfs.counts(static_cast<CountingVfs::Class>(c)).syncs;
  }
  return n;
}

}  // namespace

int run_serve_mix(const Args& args, Report& report) {
  const int jobs = std::max(1, nproc() / 2);
  set_default_jobs(jobs);

  // Set-up: input generation, then the daemon (store open, socket bind)
  // and the client connections; timed again, on spare daemons in fresh
  // directories, before each publish of the first warm-up.
  SetupTimes setup;
  std::unique_ptr<Daemon> daemon;
  std::vector<HotProgram> hot;
  std::unique_ptr<ColdPrograms> colds;
  int setups = 0;
  const auto set_up = [&](std::unique_ptr<Daemon>& d,
                          std::vector<HotProgram>& h,
                          std::unique_ptr<ColdPrograms>& c) {
    setup.time([&] {
      h = make_hot_set(args.seed);
      c = std::make_unique<ColdPrograms>(args.seed);
      d = std::make_unique<Daemon>(
          str_cat(args.state_dir, "/daemon", setups++), jobs);
    });
  };
  set_up(daemon, hot, colds);

  // Warm-up 1: publish the hot set through the daemon's cold path; each
  // program's plan bytes are the reference its hits must return.
  std::vector<double> plan_tflops;
  for (auto& h : hot) {
    for (int r = 0; r < 2; ++r) {
      std::unique_ptr<Daemon> spare;
      std::vector<HotProgram> spare_hot;
      std::unique_ptr<ColdPrograms> spare_colds;
      set_up(spare, spare_hot, spare_colds);
    }
    const Json resp = Json::parse(daemon->client(0).round_trip(h.tune_req));
    const std::string err = check_response(resp, kCold, &h);
    report.op(err.empty(), str_cat(h.name, ": ", err));
    if (err.empty()) {
      h.plan_bytes = resp["result"]["plan_bytes"].as_string();
      plan_tflops.push_back(resp["result"]["tflops"].as_double());
    }
  }

  // Self-check of the counting Vfs: a cold tune published through it has
  // the same plan bytes as one published through the real filesystem.
  std::atomic<std::uint64_t> next_cold{0};
  {
    const std::string src = colds->source(next_cold++);
    const Json resp =
        Json::parse(daemon->client(0).round_trip(request("tune", src, 0)));
    driver::ContextOptions o;
    o.jobs = jobs;
    o.store_root = args.state_dir + "/selfcheck-store";
    driver::ArtemisContext ctx(o);
    const driver::TuneOutcome direct = ctx.tune(src);
    report.op(resp["ok"].as_bool() &&
                  resp["result"]["plan_bytes"].as_string() == direct.plan_bytes,
              "counting Vfs changed the published plan bytes");
  }

  // Warm-up 2 and the timed phase: one closed loop, the first seconds
  // untimed.
  const CountingVfs::Counts wal0 = daemon->vfs().counts(CountingVfs::kWal);
  const std::uint64_t syncs0 = total_syncs(daemon->vfs());
  const std::uint64_t cold0 = next_cold.load();
  const Phase phase = closed_loop(*daemon, hot, *colds, next_cold, args.seed,
                                  kMixedWarmupS, args.seconds, report);

  Json classes = Json::object();
  for (int k = 0; k < kKinds; ++k) {
    const ClassLatency lat(phase, k);
    Json c = Json::object();
    c.set("n", Json(static_cast<std::int64_t>(lat.all.size())));
    c.set("p50_ms", Json(median(lat.all) * 1e3));
    c.set("p90_ms", Json(quantile(lat.all, 0.9) * 1e3));
    c.set("p99_ms", Json(quantile(lat.all, 0.99) * 1e3));
    Json groups = Json::array();
    for (const auto& g : lat.by_group) groups.push_back(Json(median(g) * 1e3));
    c.set("group_p50_ms", std::move(groups));
    classes.set(kind_name(k), std::move(c));
  }
  report.detail("classes", std::move(classes));
  report.detail("jobs", Json(jobs));
  report.detail("clients", Json(kClients));
  report.detail("completed", Json(phase.completed));
  Json vfs = Json::object();
  for (int c = 0; c < CountingVfs::kClasses; ++c) {
    const auto cls = static_cast<CountingVfs::Class>(c);
    const CountingVfs::Counts n = daemon->vfs().counts(cls);
    Json j = Json::object();
    j.set("files", Json(static_cast<std::int64_t>(n.files)));
    j.set("writes", Json(static_cast<std::int64_t>(n.writes)));
    j.set("bytes", Json(static_cast<std::int64_t>(n.bytes)));
    j.set("syncs", Json(static_cast<std::int64_t>(n.syncs)));
    vfs.set(CountingVfs::class_name(cls), std::move(j));
  }
  report.detail("vfs", std::move(vfs));

  // A round is one block of the mix (kBlock requests); its cost is gated
  // as the CPU time of the daemon and clients, which leaves out the host's
  // steal. Latencies and the request rate stay in the record.
  const double rounds = static_cast<double>(phase.completed) / kBlock;
  report.detail("rps", Json(static_cast<double>(phase.completed) /
                            phase.timed_s));
  if (!args.trace) {
    report.metric("round_cpu_s", phase.timed_cpu_s / rounds, "s");
    report.metric("plan_model_tflops", geomean(plan_tflops), "TFLOP/s");
    report.metric("setup_s", setup.seconds(), "s");
    return 0;
  }

  // Every cold tune of the loop, warm-up included, wrote its journal and
  // its plan through the counting Vfs; nothing else in the loop writes.
  const auto colds_run = next_cold.load() - cold0;
  const double colds_n =
      static_cast<double>(std::max<std::uint64_t>(1, colds_run));
  const CountingVfs::Counts wal1 = daemon->vfs().counts(CountingVfs::kWal);
  const std::uint64_t syncs = total_syncs(daemon->vfs()) - syncs0;
  report.metric("robust.journal_bytes_per_cold",
                static_cast<double>(wal1.bytes - wal0.bytes) / colds_n, "B");
  report.metric("storage.syncs_per_cold", static_cast<double>(syncs) / colds_n,
                "count");
  report.layer_detail("service.cold_tunes", static_cast<double>(colds_run),
                      "count");
  report.layer_detail("robust.journal_records_per_cold",
                      static_cast<double>(wal1.writes - wal0.writes) / colds_n,
                      "count");
  const ClassLatency hit(phase, kHit), cold(phase, kCold);
  report.layer_detail("service.hit_p99_ms", quantile(hit.all, 0.99) * 1e3,
                      "ms");
  report.layer_detail("service.hit_samples",
                      static_cast<double>(hit.all.size()), "count");
  report.layer_detail("service.cold_share",
                      static_cast<double>(cold.all.size()) /
                          static_cast<double>(phase.samples.size()),
                      "ratio");
  const double hit_handle_s =
      replay_layers(*daemon, hot, *colds, next_cold, args.state_dir, report);
  // Transport: what the socket, framing and client add to a hit, as the
  // client's median minus the in-process handle() median.
  report.layer_detail("service.transport_us",
                      (median(hit.all) - hit_handle_s) * 1e6, "us");
  report.layer_detail("service.dedup_coalesced",
                      static_cast<double>(
                          daemon->service().stats_snapshot().dedup_coalesced),
                      "count");
  return 0;
}

}  // namespace perfbench
