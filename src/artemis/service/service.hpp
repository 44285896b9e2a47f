#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "artemis/driver/context.hpp"
#include "artemis/service/protocol.hpp"

namespace artemis::service {

struct ServiceOptions {
  driver::ContextOptions context;
  /// Directory for per-request tuning journals (one
  /// `<plan_key>.wal` per tuned program, opened with resume so a
  /// restarted daemon picks up where a killed tune left off). "" = no
  /// write-ahead journaling of tunes.
  std::string journal_dir;
};

/// Service-lifetime counters, all monotonic. The dedup invariant tests
/// assert on `tuner_runs` (exactly one per distinct program however many
/// clients raced) and `dedup_coalesced` (how many requests piggybacked on
/// an identical in-flight tune).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< error responses produced
  std::uint64_t compile_calls = 0;
  std::uint64_t tune_calls = 0;
  std::uint64_t run_calls = 0;
  std::uint64_t stats_calls = 0;
  std::uint64_t shutdown_calls = 0;
  std::uint64_t plan_hits = 0;        ///< served straight from the store
  std::uint64_t tuner_runs = 0;       ///< misses that ran the optimizer
  std::uint64_t dedup_coalesced = 0;  ///< waited on an in-flight tune
};

/// The daemon's request dispatcher, independent of any transport: one
/// JSON request payload in, one JSON response payload out, never throwing
/// for client-caused failures (every rejection is a structured error
/// response). storage::FsCrash is the one exception deliberately let
/// through — a simulated machine death must kill the simulated daemon,
/// exactly like SIGKILL kills the real one.
///
/// Request dedup: tune requests are keyed by the content-addressed plan
/// key (canonical IR hash + device + tuner version). A key already
/// published in the plan store is served from it; a key with a tune in
/// flight makes the request wait for that tune's result instead of
/// starting a second evaluation; only a cold key runs the tuner. All
/// coalesced requests receive byte-identical plan bytes.
class ArtemisService {
 public:
  explicit ArtemisService(ServiceOptions opts);

  /// Dispatch one request payload (JSON text) to a response payload.
  /// Thread-safe: connections call this concurrently.
  std::string handle(const std::string& request_payload);

  /// Structured form of handle() for in-process callers and tests.
  Json handle_json(const Json& request);

  /// True once a shutdown request was accepted; the transport loop exits.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  ServiceStats stats_snapshot() const;
  driver::ArtemisContext& context() { return ctx_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  /// Result of one tune evaluation, shared between the evaluating request
  /// and every coalesced waiter.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    Json result;          ///< valid when ok
    std::string code;     ///< error code when !ok
    std::string message;  ///< error message when !ok
  };

  Json handle_payload(const std::string& request_payload);
  Json dispatch(const Request& req);
  Json do_compile(const Request& req);
  Json do_tune(const Request& req);
  Json do_run(const Request& req);
  Json do_stats(const Request& req);
  Json do_shutdown(const Request& req);

  /// Tune result payload from a durable record (store hit or fresh).
  static Json tune_result(const storage::PlanRecord& rec,
                          const std::string& plan_bytes, bool cached);

  /// The `source` param, or a bad_request error via exception.
  static std::string require_source(const Request& req);

  ServiceOptions opts_;
  driver::ArtemisContext ctx_;
  std::atomic<bool> shutdown_{false};

  mutable std::mutex mu_;  ///< guards stats_ and inflight_
  ServiceStats stats_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
};

}  // namespace artemis::service
