#include <gtest/gtest.h>
#include <unistd.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "artemis/common/json.hpp"
#include "artemis/service/service.hpp"
#include "artemis/service/socket_server.hpp"
#include "artemis/storage/vfs.hpp"
#include "test_programs.hpp"

// End-to-end stress over the real transport: a daemon on a unix-domain
// socket, concurrent client connections, and the dedup invariant observed
// through the wire (one tuner run, byte-identical plans for every
// client).

namespace artemis::service {
namespace {

using storage::MemVfs;

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "artemis_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

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

ServiceOptions service_options(storage::Vfs& vfs) {
  ServiceOptions opts;
  opts.context.vfs = &vfs;
  opts.context.store_root = "store";
  opts.context.jobs = 2;
  opts.journal_dir = "wal";
  return opts;
}

/// Daemon fixture: service + socket server on a serve() thread, stopped
/// through a real shutdown request like a production client would.
class Daemon {
 public:
  explicit Daemon(const std::string& name)
      : svc_(service_options(vfs_)), server_(svc_, socket_path(name)) {
    thread_ = std::thread([this] { server_.serve(); });
  }

  ~Daemon() {
    if (!svc_.shutdown_requested()) {
      try {
        UnixClient stopper(server_.socket_path());
        stopper.call(make_request(0, "shutdown"));
      } catch (const Error&) {
        server_.stop();
      }
    }
    thread_.join();
  }

  const std::string& path() const { return server_.socket_path(); }
  ArtemisService& service() { return svc_; }

 private:
  MemVfs vfs_;
  ArtemisService svc_;
  SocketServer server_;
  std::thread thread_;
};

TEST(ServiceStressTest, ConcurrentSocketClientsCoalesceToOneTunerRun) {
  Daemon daemon("coalesce");
  constexpr int kClients = 6;
  std::vector<Json> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      UnixClient client(daemon.path());
      responses[i] = client.call(make_request(i, "tune", testing::kDagDsl));
    });
  }
  for (auto& t : threads) t.join();

  std::set<std::string> distinct;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i]["ok"].as_bool()) << responses[i].dump(2);
    EXPECT_EQ(responses[i]["id"].as_int(), i);
    distinct.insert(responses[i]["result"]["plan_bytes"].as_string());
  }
  EXPECT_EQ(distinct.size(), 1u);

  UnixClient client(daemon.path());
  const Json stats = client.call(make_request(99, "stats"));
  ASSERT_TRUE(stats["ok"].as_bool());
  const Json& s = stats["result"]["service"];
  EXPECT_EQ(s["tuner_runs"].as_int(), 1);
  EXPECT_EQ(s["tune_calls"].as_int(), kClients);
  EXPECT_EQ(s["plan_hits"].as_int() + s["dedup_coalesced"].as_int(),
            kClients - 1);
  EXPECT_EQ(s["errors"].as_int(), 0);
}

TEST(ServiceStressTest, DistinctProgramsTuneIndependently) {
  Daemon daemon("distinct");
  const char* programs[] = {artemis::testing::kJacobiDsl,
                            artemis::testing::kDagDsl};
  std::vector<std::string> bytes[2];
  std::vector<std::thread> threads;
  std::mutex mu;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&, i] {
      UnixClient client(daemon.path());
      const Json resp =
          client.call(make_request(i, "tune", programs[i % 2]));
      ASSERT_TRUE(resp["ok"].as_bool()) << resp.dump(2);
      const std::lock_guard<std::mutex> lock(mu);
      bytes[i % 2].push_back(resp["result"]["plan_bytes"].as_string());
    });
  }
  for (auto& t : threads) t.join();

  for (int p = 0; p < 2; ++p) {
    const std::set<std::string> distinct(bytes[p].begin(), bytes[p].end());
    EXPECT_EQ(distinct.size(), 1u) << "program " << p;
  }
  EXPECT_NE(bytes[0].front(), bytes[1].front());
  EXPECT_EQ(daemon.service().stats_snapshot().tuner_runs, 2u);
}

TEST(ServiceStressTest, OneConnectionDrivesTheFullMethodSurface) {
  Daemon daemon("surface");
  UnixClient client(daemon.path());

  Json resp = client.call(make_request(1, "compile", testing::kJacobiDsl));
  ASSERT_TRUE(resp["ok"].as_bool()) << resp.dump(2);
  const std::string key = resp["result"]["plan_key"].as_string();

  resp = client.call(make_request(2, "tune", testing::kJacobiDsl));
  ASSERT_TRUE(resp["ok"].as_bool()) << resp.dump(2);
  EXPECT_EQ(resp["result"]["plan_key"].as_string(), key);
  EXPECT_FALSE(resp["result"]["config"].as_string().empty());
  EXPECT_GT(resp["result"]["tflops"].as_double(), 0.0);

  resp = client.call(make_request(3, "run", testing::kJacobiDsl));
  ASSERT_TRUE(resp["ok"].as_bool()) << resp.dump(2);
  ASSERT_TRUE(resp["result"]["checks"].is_array());
  ASSERT_GE(resp["result"]["checks"].size(), 1u);
  for (const Json& check : resp["result"]["checks"].items()) {
    EXPECT_EQ(check["max_abs_diff"].as_double(), 0.0);
  }

  resp = client.call(make_request(4, "stats"));
  ASSERT_TRUE(resp["ok"].as_bool());
  EXPECT_EQ(resp["result"]["protocol_version"].as_int(), kProtocolVersion);
  EXPECT_EQ(resp["result"]["service"]["requests"].as_int(), 3);
}

// A tune in flight and a shutdown racing it: the in-flight tune must
// complete with a valid plan (the evaluator is never abandoned), and the
// daemon must stop accepting new tunes afterwards.
TEST(ServiceStressTest, ShutdownDoesNotAbandonInFlightTune) {
  Daemon daemon("shutdown");
  // Both connections are established before the shutdown is issued, so
  // neither racer can lose the listening socket.
  UnixClient tune_client(daemon.path());
  UnixClient stopper(daemon.path());
  Json tune_resp;
  std::thread tuner([&] {
    tune_resp = tune_client.call(make_request(1, "tune", testing::kDagDsl));
  });
  const Json resp = stopper.call(make_request(2, "shutdown"));
  ASSERT_TRUE(resp["ok"].as_bool());
  tuner.join();
  // The tune either completed before the shutdown gated it or was
  // refused with the structured shutting_down error — never a hang or a
  // torn response.
  if (tune_resp["ok"].as_bool()) {
    EXPECT_FALSE(tune_resp["result"]["plan_bytes"].as_string().empty());
  } else {
    EXPECT_EQ(tune_resp["error"]["code"].as_string(), "shutting_down");
  }
}

}  // namespace
}  // namespace artemis::service
