#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "artemis/common/json.hpp"
#include "artemis/driver/context.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/service/service.hpp"
#include "artemis/storage/plan_store.hpp"
#include "artemis/storage/vfs.hpp"
#include "test_programs.hpp"

// Service-level acceptance tests for the tuning daemon's dispatcher: the
// dedup invariant (N identical concurrent requests -> one tuning
// evaluation, byte-identical plans), equivalence with a one-shot library
// tune, and kill -9 mid-tune + restart resuming from the journal to the
// same plan bytes.

namespace artemis::service {
namespace {

using storage::MemVfs;

Json make_request(int id, const std::string& method,
                  const char* source = nullptr) {
  Json req = Json::object();
  req.set("id", Json(id));
  req.set("method", Json(method));
  Json params = Json::object();
  if (source != nullptr) params.set("source", Json(source));
  req.set("params", std::move(params));
  return req;
}

ServiceOptions service_options(storage::Vfs& vfs, int jobs = 2) {
  ServiceOptions opts;
  opts.context.vfs = &vfs;
  opts.context.store_root = "store";
  opts.context.jobs = jobs;
  opts.journal_dir = "wal";
  return opts;
}

std::string tune_bytes(const Json& response) {
  EXPECT_TRUE(response["ok"].as_bool()) << response.dump(2);
  return response["result"]["plan_bytes"].as_string();
}

/// Candidate keys of every complete journal record line
/// (`<status>\t<time_s>\t<tflops>\t<candidate key>`).
std::vector<std::string> journal_candidate_keys(const std::string& text) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) break;  // torn tail: not a record yet
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    keys.push_back(line.substr(tab + 1));
  }
  return keys;
}

TEST(ServiceTest, CompileReportsContentKeys) {
  MemVfs vfs;
  ArtemisService svc(service_options(vfs));
  const Json resp =
      svc.handle_json(make_request(1, "compile", testing::kDagDsl));
  ASSERT_TRUE(resp["ok"].as_bool()) << resp.dump(2);
  const Json& r = resp["result"];
  EXPECT_EQ(r["plan_key"].as_string().size(), 32u);
  EXPECT_FALSE(r["run_key"].as_string().empty());
  EXPECT_EQ(r["steps"].as_int(), 2);
  EXPECT_EQ(svc.stats_snapshot().compile_calls, 1u);
}

TEST(ServiceTest, ClientFailuresAreStructuredErrors) {
  MemVfs vfs;
  ArtemisService svc(service_options(vfs));

  Json resp = svc.handle_json(make_request(1, "tune", "not a program"));
  ASSERT_FALSE(resp["ok"].as_bool());
  EXPECT_EQ(resp["error"]["code"].as_string(), "compile_error");

  resp = svc.handle_json(make_request(2, "tune"));
  ASSERT_FALSE(resp["ok"].as_bool());
  EXPECT_EQ(resp["error"]["code"].as_string(), "bad_request");

  resp = svc.handle_json(make_request(3, "frobnicate"));
  ASSERT_FALSE(resp["ok"].as_bool());
  EXPECT_EQ(resp["error"]["code"].as_string(), "unknown_method");

  const auto s = svc.stats_snapshot();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.errors, 3u);
  EXPECT_EQ(s.tuner_runs, 0u);
}

// The tentpole dedup invariant: however many identical requests race, the
// tuner runs exactly once and every client receives byte-identical plan
// bytes. Requests that arrive after publication count as plan hits,
// requests that arrive mid-tune count as coalesced; together they account
// for all N-1 non-evaluating requests.
TEST(ServiceTest, ConcurrentIdenticalTunesRunTunerOnce) {
  MemVfs vfs;
  ArtemisService svc(service_options(vfs));
  constexpr int kClients = 8;

  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      responses[i] =
          svc.handle(make_request(i, "tune", testing::kDagDsl).dump());
    });
  }
  for (auto& t : threads) t.join();

  std::set<std::string> distinct_bytes;
  for (const auto& payload : responses) {
    distinct_bytes.insert(tune_bytes(Json::parse(payload)));
  }
  EXPECT_EQ(distinct_bytes.size(), 1u);
  EXPECT_FALSE(distinct_bytes.begin()->empty());

  const auto s = svc.stats_snapshot();
  EXPECT_EQ(s.tune_calls, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.tuner_runs, 1u);
  EXPECT_EQ(s.plan_hits + s.dedup_coalesced,
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(s.errors, 0u);
}

// A restarted daemon over the same store serves the published plan
// without re-tuning, byte-identically.
TEST(ServiceTest, RestartedDaemonServesPublishedPlan) {
  MemVfs vfs;
  std::string first_bytes;
  {
    ArtemisService svc(service_options(vfs));
    first_bytes =
        tune_bytes(svc.handle_json(make_request(1, "tune", testing::kDagDsl)));
  }
  ArtemisService svc(service_options(vfs));
  const Json resp = svc.handle_json(make_request(2, "tune", testing::kDagDsl));
  EXPECT_EQ(tune_bytes(resp), first_bytes);
  EXPECT_TRUE(resp["result"]["cached"].as_bool());
  const auto s = svc.stats_snapshot();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.tuner_runs, 0u);
}

// Daemon-served plans are byte-identical to a one-shot library tune on a
// completely separate filesystem, even at different tuning parallelism —
// the "artemisc and artemisd always agree" guarantee, including the
// durable object published in the store.
TEST(ServiceTest, DaemonPlanMatchesOneShotLibraryTune) {
  MemVfs daemon_vfs;
  ArtemisService svc(service_options(daemon_vfs, /*jobs=*/3));
  const Json resp = svc.handle_json(make_request(1, "tune", testing::kDagDsl));
  const std::string daemon_bytes = tune_bytes(resp);
  const std::string key = resp["result"]["plan_key"].as_string();

  MemVfs oneshot_vfs;
  driver::ContextOptions copts;
  copts.vfs = &oneshot_vfs;
  copts.store_root = "store";
  copts.jobs = 1;
  driver::ArtemisContext ctx(copts);
  const auto outcome = ctx.tune(testing::kDagDsl);

  EXPECT_EQ(outcome.compile.plan_key, key);
  EXPECT_EQ(outcome.plan_bytes, daemon_bytes);

  const std::string object =
      "store/objects/" + storage::PlanStore::shard_of(key) + "/" + key +
      ".plan";
  const auto daemon_obj = daemon_vfs.read(object);
  const auto oneshot_obj = oneshot_vfs.read(object);
  ASSERT_TRUE(daemon_obj.has_value());
  ASSERT_TRUE(oneshot_obj.has_value());
  EXPECT_EQ(*daemon_obj, *oneshot_obj);
}

TEST(ServiceTest, ShutdownGatesNewWorkButAnswersStats) {
  MemVfs vfs;
  ArtemisService svc(service_options(vfs));
  const Json resp = svc.handle_json(make_request(1, "shutdown"));
  ASSERT_TRUE(resp["ok"].as_bool());
  EXPECT_TRUE(resp["result"]["stopping"].as_bool());
  EXPECT_TRUE(svc.shutdown_requested());

  const Json refused = svc.handle_json(make_request(2, "tune", testing::kDagDsl));
  ASSERT_FALSE(refused["ok"].as_bool());
  EXPECT_EQ(refused["error"]["code"].as_string(), "shutting_down");

  const Json stats = svc.handle_json(make_request(3, "stats"));
  ASSERT_TRUE(stats["ok"].as_bool());
  // The `context` object carries exactly the counters docs/SERVICE.md
  // lists under "Stats schema", in that order.
  const std::vector<std::string> expected = {
      "compiles", "tunes", "tuner_runs", "store_hits", "store_serves",
      "runs"};
  const Json& context = stats["result"]["context"];
  ASSERT_EQ(context.members().size(), expected.size()) << context.dump(2);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(context.members()[i].first, expected[i]) << i;
  }
}

// kill -9 mid-tune + restart: crash the simulated machine at several
// filesystem-operation offsets spread across one tune, reboot a fresh
// daemon over the surviving state, and require (a) the re-tune resumes by
// replaying every intact journal record instead of re-evaluating it,
// (b) the journal ends with no duplicate candidate keys and the same
// record count as a crash-free run, and (c) the final plan bytes equal
// the crash-free reference exactly.
TEST(ServiceTest, KillMidTuneResumesFromJournalToSamePlanBytes) {
  // Crash-free reference (jobs=1 keeps the op trace deterministic).
  MemVfs ref_vfs;
  ref_vfs.set_record_trace(true);
  std::string ref_bytes;
  std::string plan_key;
  {
    ArtemisService svc(service_options(ref_vfs, /*jobs=*/1));
    const Json resp =
        svc.handle_json(make_request(1, "tune", testing::kJacobiDsl));
    ref_bytes = tune_bytes(resp);
    plan_key = resp["result"]["plan_key"].as_string();
  }
  const std::size_t total_ops = ref_vfs.trace().size();
  ASSERT_GT(total_ops, 16u);
  const std::string journal_path = "wal/" + plan_key + ".wal";
  const auto ref_journal = ref_vfs.read(journal_path);
  ASSERT_TRUE(ref_journal.has_value());
  const std::size_t ref_records = journal_candidate_keys(*ref_journal).size();
  ASSERT_GT(ref_records, 0u);

  const std::vector<std::size_t> offsets = {
      2, total_ops / 6, total_ops / 3, total_ops / 2, (2 * total_ops) / 3,
      total_ops - 3};
  bool replayed_somewhere = false;
  for (const std::size_t k : offsets) {
    for (const std::uint64_t variant : {std::uint64_t{0}, std::uint64_t{1}}) {
      SCOPED_TRACE("crash_at=" + std::to_string(k) +
                   " variant=" + std::to_string(variant));
      MemVfs mem;
      robust::FaultSpec spec;
      spec.fs_crash_at = static_cast<std::int64_t>(k);
      storage::FaultVfs fault(mem, spec);
      bool crashed = false;
      try {
        ArtemisService svc(service_options(fault, /*jobs=*/1));
        const Json resp =
            svc.handle_json(make_request(1, "tune", testing::kJacobiDsl));
        EXPECT_EQ(tune_bytes(resp), ref_bytes);
      } catch (const storage::FsCrash&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed) << "crash point never reached";
      mem.crash(variant);

      // What survived the power loss; every intact record must be
      // replayed, not re-evaluated, by the rebooted daemon.
      const std::size_t survivors =
          journal_candidate_keys(mem.read(journal_path).value_or("")).size();

      mem.mkdirs("wal");  // what the rebooted daemon's constructor does
      driver::ContextOptions copts = service_options(mem, /*jobs=*/1).context;
      driver::ArtemisContext ctx(copts);
      driver::TuneRequest treq;
      treq.journal_path = journal_path;
      treq.resume = true;
      treq.reuse_stored_plan = true;
      const auto outcome = ctx.tune(testing::kJacobiDsl, treq);
      EXPECT_EQ(outcome.plan_bytes, ref_bytes);
      if (!outcome.served_from_store) {
        EXPECT_EQ(outcome.journal_replayed, survivors);
        if (outcome.journal_replayed > 0) replayed_somewhere = true;

        const auto final_journal = mem.read(journal_path);
        ASSERT_TRUE(final_journal.has_value());
        const auto keys = journal_candidate_keys(*final_journal);
        EXPECT_EQ(keys.size(), ref_records);
        const std::set<std::string> unique(keys.begin(), keys.end());
        EXPECT_EQ(unique.size(), keys.size())
            << "journal re-appended a replayed candidate";
      }

      // The rebooted daemon itself now serves the same bytes.
      ArtemisService svc(service_options(mem, /*jobs=*/1));
      EXPECT_EQ(tune_bytes(svc.handle_json(
                    make_request(2, "tune", testing::kJacobiDsl))),
                ref_bytes);
    }
  }
  EXPECT_TRUE(replayed_somewhere)
      << "no crash offset left an intact journal record to replay";
}

}  // namespace
}  // namespace artemis::service
