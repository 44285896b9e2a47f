#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "artemis/autotune/search.hpp"
#include "artemis/common/json.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/driver/driver.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/telemetry/report.hpp"
#include "artemis/telemetry/run_sinks.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "artemis/telemetry/trace_sink.hpp"
#include "test_programs.hpp"

namespace artemis::telemetry {
namespace {

/// Every test runs against the (process-global) collector; enable + clear
/// on entry, disable on exit so other suites see a disabled collector.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Collector::global().enable();
    Collector::global().clear();
  }
  void TearDown() override {
    Collector::global().disable();
    Collector::global().clear();
  }
};

TEST_F(TelemetryTest, DisabledRecordsNothing) {
  Collector::global().disable();
  {
    Span s("should-not-appear", "test");
    instant("neither-should-this", "test");
    counter_add("nope", 3);
  }
  EXPECT_TRUE(Collector::global().snapshot().empty());
  EXPECT_TRUE(Collector::global().counters().empty());
}

TEST_F(TelemetryTest, SpanNestingOnOneThread) {
  {
    Span outer("outer", "test");
    { Span inner1("inner1", "test"); }
    { Span inner2("inner2", "test"); }
  }
  const auto events = Collector::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Time-sorted: outer first (same or earlier start, longer duration).
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner1");
  EXPECT_STREQ(events[2].name, "inner2");
  // Children are contained in the parent interval.
  for (int i = 1; i <= 2; ++i) {
    EXPECT_GE(events[i].ts_ns, events[0].ts_ns);
    EXPECT_LE(events[i].ts_ns + events[i].dur_ns,
              events[0].ts_ns + events[0].dur_ns);
  }
  // inner1 ended before inner2 started.
  EXPECT_LE(events[1].ts_ns + events[1].dur_ns, events[2].ts_ns);
}

TEST_F(TelemetryTest, SpansUnderParallelExecutorAreWellNested) {
  // Spans recorded inside parallel_for workers (the work-stealing pool of
  // common/parallel.hpp) must survive thread exit and stay well-nested
  // per thread id.
  constexpr std::int64_t kIters = 64;
  parallel_for(kIters, [](std::int64_t i) {
    Span outer("work", "test");
    outer.arg("i", Json(i));
    { Span inner("sub", "test"); }
  });
  const auto events = Collector::global().snapshot();
  ASSERT_EQ(events.size(), 2 * kIters);

  std::map<int, std::vector<const Event*>> by_tid;
  for (const auto& ev : events) by_tid[ev.tid].push_back(&ev);

  std::int64_t outer_seen = 0;
  for (const auto& [tid, evs] : by_tid) {
    // Within one thread the time-sorted stream must be well-nested:
    // a stack discipline over span intervals.
    std::vector<std::int64_t> end_stack;
    for (const Event* ev : evs) {
      while (!end_stack.empty() && ev->ts_ns >= end_stack.back()) {
        end_stack.pop_back();
      }
      if (!end_stack.empty()) {
        EXPECT_LE(ev->ts_ns + ev->dur_ns, end_stack.back())
            << "span " << ev->name << " escapes its parent on tid " << tid;
      }
      end_stack.push_back(ev->ts_ns + ev->dur_ns);
      if (std::strcmp(ev->name, "work") == 0) ++outer_seen;
    }
  }
  EXPECT_EQ(outer_seen, kIters);

  // Every iteration index must appear exactly once across all threads.
  std::vector<bool> seen(kIters, false);
  for (const auto& ev : events) {
    if (std::strcmp(ev.name, "work") != 0) continue;
    for (const auto& a : ev.args) {
      if (a.key == "i") {
        const auto i = a.value.as_int();
        EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
        seen[static_cast<std::size_t>(i)] = true;
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST_F(TelemetryTest, CountersAccumulateAcrossThreads) {
  parallel_for(100, [](std::int64_t) { counter_add("n", 2); });
  const auto counters = Collector::global().counters();
  ASSERT_TRUE(counters.count("n"));
  EXPECT_EQ(counters.at("n"), 200);
}

TEST_F(TelemetryTest, ChromeTraceEscapesStrings) {
  instant("evil", "test",
          {{"text", Json("quote\" slash\\ newline\ntab\tctrl\x01"
                         " unicode\xc3\xa9")}});
  const auto events = Collector::global().snapshot();
  const Json trace =
      chrome_trace(events, Collector::global().counters());
  const std::string dumped = trace.dump();
  EXPECT_NE(dumped.find("quote\\\" slash\\\\ newline\\ntab\\tctrl\\u0001"),
            std::string::npos);
  // Must parse back to the identical string.
  const Json back = Json::parse(dumped);
  ASSERT_TRUE(back.is_array());
  const Json& args = back.at(0)["args"];
  EXPECT_EQ(args["text"].as_string(),
            "quote\" slash\\ newline\ntab\tctrl\x01 unicode\xc3\xa9");
}

TEST_F(TelemetryTest, ChromeTraceShape) {
  {
    Span s("phase", "pipeline");
    instant("ping", "pipeline");
  }
  counter_add("widgets", 7);
  const Json trace = chrome_trace(Collector::global().snapshot(),
                                  Collector::global().counters());
  ASSERT_TRUE(trace.is_array());
  ASSERT_EQ(trace.size(), 3u);  // instant + span + counter sample
  bool saw_complete = false, saw_instant = false, saw_counter = false;
  for (const auto& rec : trace.items()) {
    ASSERT_TRUE(rec.contains("name"));
    ASSERT_TRUE(rec.contains("ph"));
    ASSERT_TRUE(rec.contains("ts"));
    ASSERT_TRUE(rec.contains("pid"));
    ASSERT_TRUE(rec.contains("tid"));
    const std::string ph = rec["ph"].as_string();
    if (ph == "X") {
      saw_complete = true;
      EXPECT_TRUE(rec.contains("dur"));
    } else if (ph == "i") {
      saw_instant = true;
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(rec["args"]["value"].as_int(), 7);
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST_F(TelemetryTest, SummaryTextShowsTreeAndCounters) {
  {
    Span outer("optimize", "pipeline");
    Span inner("tune", "tune");
  }
  counter_add("tuner.enumerated", 42);
  const std::string text = summary_text(Collector::global().snapshot(),
                                        Collector::global().counters());
  EXPECT_NE(text.find("optimize"), std::string::npos);
  EXPECT_NE(text.find("tune"), std::string::npos);
  EXPECT_NE(text.find("tuner.enumerated = 42"), std::string::npos);
  // The child is indented deeper than the parent.
  EXPECT_NE(text.find("\n  optimize"), std::string::npos);
  EXPECT_NE(text.find("\n    tune"), std::string::npos);
}

// ---- the end-to-end run report --------------------------------------------

/// The object's keys, in order, are exactly `expected`.
void expect_keys(const Json& obj, const std::vector<std::string>& expected) {
  ASSERT_EQ(obj.members().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(obj.members()[i].first, expected[i]) << i;
  }
}

TEST_F(TelemetryTest, RunReportRoundTripsAndCountersSumConsistently) {
  // Golden structural test for the --report output: run the full driver
  // pipeline with telemetry on, build the report, dump it, and re-parse
  // it through the minimal JSON parser. The schema (top-level keys, the
  // version field, the counter identity) is the contract trajectory
  // tooling depends on.
  const auto prog = dsl::parse(testing::kJacobiIterativeDsl);
  const auto dev = gpumodel::p100();
  const auto result = driver::optimize_program(prog, dev);

  const ReportMeta meta{"jacobi-iterative.dsl", "artemis", dev.name, 1, "bytecode"};
  const Json report =
      build_run_report(meta, result, Collector::global().snapshot(),
                       Collector::global().counters());
  const Json back = Json::parse(report.dump(2));

  // Golden key sets, in order (stable layout is part of the contract;
  // any change here needs a kReportVersion bump).
  expect_keys(back, {"report_version", "source", "strategy", "device",
                     "schedule", "fusion_schedule", "hints", "deep_tuning",
                     "tuner", "resilience", "storage", "parallel", "sim",
                     "profile", "phases"});
  expect_keys(back["tuner"],
              {"enumerated", "evaluated", "infeasible",
               "pruned_spill_budgets", "journal_hits", "candidates",
               "leaderboard_changes", "leaderboard_events", "space"});
  expect_keys(back["resilience"],
              {"eval_crashes", "eval_timeouts", "eval_retries",
               "quarantined", "quarantine_skips", "degraded",
               "journal_records", "journal_replayed", "journal_parse_errors",
               "journal_write_errors", "dropped_candidates", "dropped"});
  EXPECT_EQ(back["report_version"].as_int(), 4);
  EXPECT_EQ(back["report_version"].as_int(), kReportVersion);
  EXPECT_EQ(back["source"].as_string(), "jacobi-iterative.dsl");
  EXPECT_EQ(back["strategy"].as_string(), "artemis");

  // The chosen schedule round-trips numerically.
  const Json& sched = back["schedule"];
  EXPECT_NEAR(sched["time_ms"].as_double(), result.time_s * 1e3, 1e-9);
  ASSERT_EQ(sched["kernels"].size(), result.kernels.size());
  for (std::size_t i = 0; i < result.kernels.size(); ++i) {
    const Json& kj = sched["kernels"].at(i);
    EXPECT_EQ(kj["name"].as_string(), result.kernels[i].name);
    EXPECT_EQ(kj["config"]["max_registers"].as_int(),
              result.kernels[i].config.max_registers);
    EXPECT_EQ(kj["config"]["line"].as_string(),
              autotune::serialize_config(result.kernels[i].config));
  }
  ASSERT_EQ(back["fusion_schedule"].size(), result.fusion_schedule.size());

  // Section V measurability: the counter identity and the per-candidate
  // records must agree with each other.
  const Json& tuner = back["tuner"];
  const std::int64_t enumerated = tuner["enumerated"].as_int();
  const std::int64_t evaluated = tuner["evaluated"].as_int();
  const std::int64_t infeasible = tuner["infeasible"].as_int();
  EXPECT_GT(enumerated, 0);
  EXPECT_GT(evaluated, 0);
  EXPECT_EQ(enumerated, evaluated + infeasible);
  ASSERT_EQ(static_cast<std::int64_t>(tuner["candidates"].size()),
            enumerated);
  std::int64_t evaluated_events = 0;
  for (const auto& c : tuner["candidates"].items()) {
    const std::string outcome = c["outcome"].as_string();
    EXPECT_TRUE(outcome == "evaluated" || outcome == "infeasible");
    if (outcome == "evaluated") ++evaluated_events;
  }
  EXPECT_EQ(evaluated_events, evaluated);

  // A fault-free run reports no injected-failure activity. (The
  // "dropped" list may still hold deterministic PlanError drops, e.g. an
  // infeasible fusion degree, so it is not asserted empty.)
  const Json& resilience = back["resilience"];
  EXPECT_EQ(resilience["eval_crashes"].as_int(), 0);
  EXPECT_EQ(resilience["eval_timeouts"].as_int(), 0);
  EXPECT_EQ(resilience["degraded"].as_int(), 0);
  EXPECT_EQ(resilience["journal_records"].as_int(), 0);

  // The parallel section reports the requested jobs (defaulted to 1 in
  // ReportMeta) and non-negative pool accounting.
  const Json& parallel = back["parallel"];
  EXPECT_EQ(parallel["jobs"].as_int(), 1);
  EXPECT_GE(parallel["pools"].as_int(), 0);
  EXPECT_GE(parallel["tasks"].as_int(), 0);
  EXPECT_GE(parallel["steals"].as_int(), 0);

  // Deep tuning appears for iterative programs and profiling fired.
  EXPECT_TRUE(back["deep_tuning"].is_object());
  EXPECT_GE(back["deep_tuning"]["tipping_point"].as_int(), 1);
  EXPECT_GT(back["profile"].size(), 0u);
  EXPECT_GT(back["phases"].size(), 0u);
}

// ---- RunSinks scope-exit flushing -----------------------------------------

class RunSinksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::string("/tmp/artemis_runsinks_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    trace_ = base_ + "_trace.json";
    report_ = base_ + "_report.json";
    metrics_ = base_ + "_metrics.json";
    cleanup();
    Collector::global().disable();
    Collector::global().clear();
  }
  void TearDown() override {
    cleanup();
    Collector::global().disable();
    Collector::global().clear();
  }
  void cleanup() {
    std::remove(trace_.c_str());
    std::remove(report_.c_str());
    std::remove(metrics_.c_str());
  }
  static Json parse_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
  }
  std::string base_, trace_, report_, metrics_;
};

TEST_F(RunSinksTest, InactiveWithoutSinks) {
  RunSinks sinks({});
  EXPECT_FALSE(sinks.active());
  EXPECT_FALSE(enabled());  // telemetry stays zero-overhead
  EXPECT_TRUE(sinks.finalize());
}

TEST_F(RunSinksTest, ThrownRunStillLeavesParseableJson) {
  // The scope-exit guarantee: a run that throws mid-pipeline leaves
  // valid JSON at every requested path, marked incomplete.
  try {
    RunSinks sinks({trace_, report_, metrics_, /*summary=*/false});
    EXPECT_TRUE(sinks.active());
    EXPECT_TRUE(enabled());
    sinks.set_meta({"boom.dsl", "artemis", "P100", 2, "bytecode"});
    counter_add("tuner.enumerated", 3);
    instant("tuner.leaderboard", "tune");
    throw Error("pipeline exploded");
  } catch (const Error&) {
  }

  // The trace stays a bare record array; the completion marker is the
  // final run.completed instant.
  const Json trace = parse_file(trace_);
  ASSERT_TRUE(trace.is_array());
  ASSERT_GT(trace.size(), 0u);
  const Json& done = trace.at(trace.size() - 1);
  EXPECT_EQ(done["name"].as_string(), "run.completed");
  EXPECT_FALSE(done["args"]["completed"].as_bool());

  const Json report = parse_file(report_);
  EXPECT_FALSE(report["completed"].as_bool());
  EXPECT_EQ(report["report_version"].as_int(), kReportVersion);
  EXPECT_EQ(report["source"].as_string(), "boom.dsl");
  // Truncated but structurally whole: the schedule section exists (and
  // is empty — the driver never finished), and the recorded telemetry
  // made it out.
  EXPECT_EQ(report["schedule"]["kernels"].size(), 0u);
  EXPECT_EQ(report["tuner"]["enumerated"].as_int(), 3);

  const Json metrics = parse_file(metrics_);
  EXPECT_FALSE(metrics["completed"].as_bool());
}

TEST_F(RunSinksTest, FinalizeMarksCompletedAndEmbedsMetrics) {
  {
    RunSinks sinks({"", report_, metrics_, /*summary=*/false});
    sinks.set_meta({"ok.dsl", "artemis", "P100", 1, "bytecode"});
    driver::ProgramResult r;
    r.strategy = "artemis";
    sinks.set_result(std::move(r));
    Json m = Json::object();
    m.set("metrics_version", 1);
    sinks.set_metrics(std::move(m));
    EXPECT_TRUE(sinks.finalize());
  }
  const Json report = parse_file(report_);
  EXPECT_TRUE(report["completed"].as_bool());
  EXPECT_TRUE(report["metrics"].is_object());
  const Json metrics = parse_file(metrics_);
  EXPECT_TRUE(metrics["completed"].as_bool());
  EXPECT_EQ(metrics["metrics_version"].as_int(), 1);
}

TEST_F(RunSinksTest, DestructorIsIdempotentAfterFinalize) {
  {
    RunSinks sinks({"", report_, "", false});
    sinks.set_meta({"once.dsl", "artemis", "P100", 1, "bytecode"});
    EXPECT_TRUE(sinks.finalize());
    // Overwrite the file; the destructor must not clobber it again.
    ASSERT_TRUE(write_file(report_, "{\"sentinel\": true}\n"));
  }
  const Json report = parse_file(report_);
  EXPECT_TRUE(report["sentinel"].as_bool());
}

// ---- Json round-trip ------------------------------------------------------

TEST(JsonTest, RoundTripsValues) {
  Json obj = Json::object();
  obj.set("int", std::int64_t{-123456789012345});
  obj.set("double", 0.125);
  obj.set("bool", true);
  obj.set("null", Json());
  obj.set("string", "a\"b\\c\nd");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obj.set("arr", std::move(arr));

  for (const int indent : {-1, 0, 2}) {
    const Json back = Json::parse(obj.dump(indent));
    EXPECT_EQ(back["int"].as_int(), -123456789012345);
    EXPECT_DOUBLE_EQ(back["double"].as_double(), 0.125);
    EXPECT_TRUE(back["bool"].as_bool());
    EXPECT_TRUE(back["null"].is_null());
    EXPECT_EQ(back["string"].as_string(), "a\"b\\c\nd");
    EXPECT_EQ(back["arr"].size(), 2u);
    EXPECT_EQ(back["arr"].at(1).as_string(), "two");
  }
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]2"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("12 34"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
}

TEST(JsonTest, PreservesKeyOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
}

}  // namespace
}  // namespace artemis::telemetry
