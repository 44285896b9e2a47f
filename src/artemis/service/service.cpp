#include "artemis/service/service.hpp"

#include <utility>

#include "artemis/common/str.hpp"

namespace artemis::service {

namespace {

/// Internal control-flow error carrying a protocol error code; converted
/// to a structured error response by dispatch(). Never escapes handle().
class ServiceError : public Error {
 public:
  ServiceError(const char* code, const std::string& message)
      : Error(message), code_(code) {}
  const char* code() const { return code_; }

 private:
  const char* code_;
};

Json stats_to_json(const ServiceStats& s, std::size_t inflight) {
  Json j = Json::object();
  j.set("requests", Json(static_cast<std::int64_t>(s.requests)));
  j.set("errors", Json(static_cast<std::int64_t>(s.errors)));
  j.set("compile_calls", Json(static_cast<std::int64_t>(s.compile_calls)));
  j.set("tune_calls", Json(static_cast<std::int64_t>(s.tune_calls)));
  j.set("run_calls", Json(static_cast<std::int64_t>(s.run_calls)));
  j.set("stats_calls", Json(static_cast<std::int64_t>(s.stats_calls)));
  j.set("shutdown_calls",
        Json(static_cast<std::int64_t>(s.shutdown_calls)));
  j.set("plan_hits", Json(static_cast<std::int64_t>(s.plan_hits)));
  j.set("tuner_runs", Json(static_cast<std::int64_t>(s.tuner_runs)));
  j.set("dedup_coalesced",
        Json(static_cast<std::int64_t>(s.dedup_coalesced)));
  j.set("inflight", Json(static_cast<std::int64_t>(inflight)));
  return j;
}

Json plan_store_stats_json(const storage::PlanStoreStats& s) {
  Json j = Json::object();
  const auto u = [](std::uint64_t v) {
    return Json(static_cast<std::int64_t>(v));
  };
  j.set("hits", u(s.hits));
  j.set("misses", u(s.misses));
  j.set("puts", u(s.puts));
  j.set("put_failures", u(s.put_failures));
  j.set("io_errors", u(s.io_errors));
  j.set("recovered_tmp", u(s.recovered_tmp));
  j.set("quarantined", u(s.quarantined));
  j.set("drop_torn", u(s.drop_torn));
  j.set("drop_crc_mismatch", u(s.drop_crc_mismatch));
  j.set("drop_version_skew", u(s.drop_version_skew));
  j.set("drop_malformed", u(s.drop_malformed));
  j.set("stale_locks_reclaimed", u(s.stale_locks_reclaimed));
  j.set("compactions", u(s.compactions));
  return j;
}

}  // namespace

ArtemisService::ArtemisService(ServiceOptions opts)
    : opts_(std::move(opts)), ctx_(opts_.context) {
  if (!opts_.journal_dir.empty()) {
    ctx_.vfs().mkdirs(opts_.journal_dir);
  }
}

std::string ArtemisService::require_source(const Request& req) {
  if (!req.params.contains("source") ||
      !req.params["source"].is_string() ||
      req.params["source"].as_string().empty()) {
    throw ServiceError(errc::kBadRequest,
                       str_cat("method '", req.method,
                               "' requires a non-empty string param "
                               "'source'"));
  }
  return req.params["source"].as_string();
}

std::string ArtemisService::handle(const std::string& request_payload) {
  return handle_payload(request_payload).dump();
}

Json ArtemisService::handle_json(const Json& request) {
  return handle_payload(request.dump());
}

Json ArtemisService::handle_payload(const std::string& request_payload) {
  std::string code, message;
  Json id;
  Json response;
  const auto req = parse_request(request_payload, &code, &message, &id);
  if (!req.has_value()) {
    response = make_error(id, code, message);
  } else {
    response = dispatch(*req);
  }
  const bool ok = response["ok"].as_bool();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    if (!ok) ++stats_.errors;
  }
  return response;
}

Json ArtemisService::dispatch(const Request& req) {
  try {
    if (shutdown_requested() && req.method != "stats" &&
        req.method != "shutdown") {
      throw ServiceError(errc::kShuttingDown,
                         "the daemon is shutting down");
    }
    if (req.method == "compile") return do_compile(req);
    if (req.method == "tune") return do_tune(req);
    if (req.method == "run") return do_run(req);
    if (req.method == "stats") return do_stats(req);
    if (req.method == "shutdown") return do_shutdown(req);
    return make_error(req.id, errc::kUnknownMethod,
                      str_cat("unknown method '", req.method, "'"));
  } catch (const storage::FsCrash&) {
    throw;  // the simulated machine is dead; the daemon dies with it
  } catch (const ServiceError& e) {
    return make_error(req.id, e.code(), e.what());
  } catch (const Error& e) {
    return make_error(req.id, errc::kInternal, e.what());
  } catch (const std::exception& e) {
    return make_error(req.id, errc::kInternal, e.what());
  }
}

Json ArtemisService::do_compile(const Request& req) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compile_calls;
  }
  const std::string source = require_source(req);
  driver::CompileInfo info;
  try {
    info = ctx_.compile(source);
  } catch (const Error& e) {
    throw ServiceError(errc::kCompileError, e.what());
  }
  Json result = Json::object();
  result.set("plan_key", Json(info.plan_key));
  result.set("run_key", Json(info.run_key));
  result.set("device", Json(ctx_.device().name));
  result.set("arrays",
             Json(static_cast<std::int64_t>(info.program.arrays.size())));
  result.set("steps",
             Json(static_cast<std::int64_t>(info.program.steps.size())));
  Json params = Json::object();
  for (const auto& p : info.program.params) {
    params.set(p.name, Json(static_cast<std::int64_t>(p.value)));
  }
  result.set("params", std::move(params));
  return make_response(req.id, std::move(result));
}

Json ArtemisService::tune_result(const storage::PlanRecord& rec,
                                 const std::string& plan_bytes, bool cached) {
  Json result = Json::object();
  result.set("plan_key", Json(rec.key));
  result.set("config", Json(rec.config));
  result.set("time_s", Json(rec.time_s));
  result.set("tflops", Json(rec.tflops));
  result.set("cached", Json(cached));
  result.set("plan_bytes", Json(plan_bytes));
  return result;
}

Json ArtemisService::do_tune(const Request& req) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.tune_calls;
  }
  const std::string source = require_source(req);
  driver::CompileInfo info;
  try {
    info = ctx_.compile(source);
  } catch (const Error& e) {
    throw ServiceError(errc::kCompileError, e.what());
  }
  const std::string& key = info.plan_key;

  // Fast path: the plan is already published. No locks, no dedup — the
  // store read is the whole request.
  if (auto hit = ctx_.stored_plan(key)) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.plan_hits;
    }
    return make_response(
        req.id,
        tune_result(*hit, storage::encode_plan_record(*hit),
                    /*cached=*/true));
  }

  // Miss: join an identical in-flight tune, or become the evaluator.
  std::shared_ptr<InFlight> fl;
  bool evaluator = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fl = it->second;
      ++stats_.dedup_coalesced;
    } else {
      fl = std::make_shared<InFlight>();
      inflight_[key] = fl;
      evaluator = true;
    }
  }

  if (!evaluator) {
    std::unique_lock<std::mutex> wait_lock(fl->mu);
    fl->cv.wait(wait_lock, [&] { return fl->done; });
    if (!fl->ok) throw ServiceError(errc::kTuneError, fl->message);
    return make_response(req.id, fl->result);
  }

  // Evaluator path. Whatever happens — success, a tuning error, or a
  // simulated machine death — the in-flight entry is completed and
  // removed so coalesced waiters never hang and the key can be retried.
  const auto finish = [&](bool ok, Json result, std::string message) {
    {
      const std::lock_guard<std::mutex> lock(fl->mu);
      fl->done = true;
      fl->ok = ok;
      fl->result = std::move(result);
      fl->message = std::move(message);
    }
    fl->cv.notify_all();
    const std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
  };

  driver::TuneRequest treq;
  treq.reuse_stored_plan = true;  // another daemon may have published it
  if (!opts_.journal_dir.empty()) {
    treq.journal_path = str_cat(opts_.journal_dir, "/", key, ".wal");
    treq.resume = true;
  }
  driver::TuneOutcome outcome;
  try {
    outcome = ctx_.tune(source, treq);
  } catch (const storage::FsCrash&) {
    finish(false, Json(), "the daemon crashed mid-tune");
    throw;
  } catch (const Error& e) {
    finish(false, Json(), e.what());
    throw ServiceError(errc::kTuneError, e.what());
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (outcome.served_from_store) {
      ++stats_.plan_hits;
    } else {
      ++stats_.tuner_runs;
    }
  }
  Json result = tune_result(outcome.record, outcome.plan_bytes,
                            outcome.served_from_store);
  finish(true, result, "");
  return make_response(req.id, std::move(result));
}

Json ArtemisService::do_run(const Request& req) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.run_calls;
  }
  const std::string source = require_source(req);
  driver::RunOutcome outcome;
  try {
    outcome = ctx_.run(source);
  } catch (const storage::FsCrash&) {
    throw;
  } catch (const Error& e) {
    throw ServiceError(errc::kCompileError, e.what());
  }
  Json checks = Json::array();
  for (const auto& c : outcome.checks) {
    Json entry = Json::object();
    entry.set("array", Json(c.array));
    entry.set("checksum", Json(c.checksum));
    entry.set("max_abs_diff", Json(c.max_abs_diff));
    checks.push_back(std::move(entry));
  }
  Json result = Json::object();
  result.set("plan_key", Json(outcome.compile.plan_key));
  result.set("checks", std::move(checks));
  return make_response(req.id, std::move(result));
}

Json ArtemisService::do_stats(const Request& req) {
  ServiceStats snapshot;
  std::size_t inflight = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stats_calls;
    snapshot = stats_;
    inflight = inflight_.size();
  }
  Json result = Json::object();
  result.set("protocol_version", Json(kProtocolVersion));
  result.set("device", Json(ctx_.device().name));
  result.set("strategy", Json(ctx_.strategy().name));
  result.set("jobs", Json(ctx_.resolved_jobs()));
  result.set("service", stats_to_json(snapshot, inflight));
  const auto cs = ctx_.stats();
  Json cj = Json::object();
  cj.set("compiles", Json(static_cast<std::int64_t>(cs.compiles)));
  cj.set("tunes", Json(static_cast<std::int64_t>(cs.tunes)));
  cj.set("tuner_runs", Json(static_cast<std::int64_t>(cs.tuner_runs)));
  cj.set("store_hits", Json(static_cast<std::int64_t>(cs.store_hits)));
  cj.set("store_serves", Json(static_cast<std::int64_t>(cs.store_serves)));
  cj.set("runs", Json(static_cast<std::int64_t>(cs.runs)));
  result.set("context", std::move(cj));
  if (storage::PlanStore* store = ctx_.store()) {
    result.set("plan_store", plan_store_stats_json(store->stats()));
  } else {
    result.set("plan_store", Json());
  }
  return make_response(req.id, std::move(result));
}

Json ArtemisService::do_shutdown(const Request& req) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shutdown_calls;
  }
  shutdown_.store(true, std::memory_order_release);
  Json result = Json::object();
  result.set("stopping", Json(true));
  return make_response(req.id, std::move(result));
}

ServiceStats ArtemisService::stats_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace artemis::service
