#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/robust/journal.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/storage/crash_check.hpp"
#include "artemis/storage/vfs.hpp"

namespace artemis::robust {
namespace {

using Status = JournalLoadResult::Status;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = str_cat("/tmp/artemis_journal_test_",
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name(),
                    ".wal");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() const {
    std::ifstream in(path_);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  void write_file(const std::string& text) const {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }

  std::string path_;
};

TEST_F(JournalTest, FreshOpenRecordsAndResumes) {
  {
    TuningJournal j;
    const auto res = j.open(path_, "runA", /*resume=*/false);
    EXPECT_EQ(res.status, Status::Fresh);
    ASSERT_TRUE(j.active());
    j.record("cfg1", "ok", 1.5e-3, 0.8);
    j.record("cfg2", "infeasible", 0, 0);
    EXPECT_EQ(j.recorded(), 2u);
  }  // close = crash at an arbitrary later point

  TuningJournal j2;
  const auto res = j2.open(path_, "runA", /*resume=*/true);
  EXPECT_EQ(res.status, Status::Replayed);
  EXPECT_EQ(res.replayed, 2u);
  EXPECT_EQ(res.skipped, 0u);
  EXPECT_FALSE(res.torn_tail);
  const auto rec = j2.lookup("cfg1");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, "ok");
  EXPECT_DOUBLE_EQ(rec->time_s, 1.5e-3);
  EXPECT_DOUBLE_EQ(rec->tflops, 0.8);
  EXPECT_EQ(j2.lookup("cfg2")->status, "infeasible");
  EXPECT_FALSE(j2.lookup("cfg3").has_value());
}

TEST_F(JournalTest, DuplicateKeysLaterRecordWins) {
  {
    TuningJournal j;
    j.open(path_, "runA", false);
    j.record("cfg", "crash", 0, 0);
    j.record("cfg", "ok", 2e-3, 0.5);  // retry on a later run succeeded
  }
  TuningJournal j2;
  const auto res = j2.open(path_, "runA", true);
  EXPECT_EQ(res.replayed, 2u);
  EXPECT_EQ(j2.replay_size(), 1u) << "same key collapses to one entry";
  EXPECT_EQ(j2.lookup("cfg")->status, "ok");
}

TEST_F(JournalTest, TornFinalLineIsDroppedAndHealed) {
  {
    TuningJournal j;
    j.open(path_, "runA", false);
    j.record("cfg1", "ok", 1e-3, 0.4);
    j.record("cfg2", "ok", 2e-3, 0.3);
  }
  // Simulate a kill mid-write: append half a record with no newline.
  {
    std::ofstream out(path_, std::ios::app);
    out << "ok\t3e-3\t0.2";
  }
  TuningJournal j2;
  const auto res = j2.open(path_, "runA", true);
  EXPECT_EQ(res.status, Status::Replayed);
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.replayed, 2u) << "the torn record is not trusted";
  j2.record("cfg3", "ok", 4e-3, 0.1);
  // The healed file holds intact lines only: the torn fragment is gone
  // and the new record starts on its own line.
  const std::string text = read_file();
  EXPECT_EQ(text.find("3e-3"), std::string::npos);
  EXPECT_NE(text.find("cfg3"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  TuningJournal j3;
  EXPECT_EQ(j3.open(path_, "runA", true).replayed, 3u);
}

TEST_F(JournalTest, VersionMismatchStartsFresh) {
  write_file("#artemis-tuning-journal v999 key=runA\n"
             "ok\t1e-3\t0.4\tcfg1\n");
  TuningJournal j;
  const auto res = j.open(path_, "runA", true);
  EXPECT_EQ(res.status, Status::VersionMismatch);
  EXPECT_EQ(j.replay_size(), 0u) << "incompatible records are not replayed";
  ASSERT_TRUE(j.active());
  // The file was replaced by a fresh v1 journal.
  EXPECT_NE(read_file().find("#artemis-tuning-journal v1 key=runA"),
            std::string::npos);
}

TEST_F(JournalTest, RunKeyMismatchStartsFresh) {
  {
    TuningJournal j;
    j.open(path_, "runA", false);
    j.record("cfg1", "ok", 1e-3, 0.4);
  }
  TuningJournal j2;
  const auto res = j2.open(path_, "runB", true);
  EXPECT_EQ(res.status, Status::KeyMismatch);
  EXPECT_EQ(j2.replay_size(), 0u)
      << "another run's journal must never be replayed";
}

TEST_F(JournalTest, MissingFileIsAFreshStart) {
  TuningJournal j;
  const auto res = j.open(path_, "runA", true);
  EXPECT_EQ(res.status, Status::Missing);
  EXPECT_TRUE(j.active());
  j.record("cfg1", "ok", 1e-3, 0.4);
  EXPECT_EQ(j.recorded(), 1u);
}

TEST_F(JournalTest, MalformedInteriorLinesSkippedNotFatal) {
  write_file("#artemis-tuning-journal v1 key=runA\n"
             "ok\t1e-3\t0.4\tcfg1\n"
             "complete garbage with no tabs\n"
             "ok\tnotanumber\t0.4\tcfg2\n"
             "ok\t2e-3\t0.3\tcfg3\n");
  std::map<std::string, JournalRecord> out;
  const auto res = parse_journal_text(read_file(), "runA", &out);
  EXPECT_EQ(res.status, Status::Replayed);
  EXPECT_EQ(res.replayed, 2u);
  EXPECT_EQ(res.skipped, 2u);
  EXPECT_EQ(out.count("cfg1"), 1u);
  EXPECT_EQ(out.count("cfg3"), 1u);
}

TEST_F(JournalTest, RecordRejectsKeysWithSeparators) {
  TuningJournal j;
  j.open(path_, "runA", false);
  EXPECT_THROW(j.record("bad\tkey", "ok", 0, 0), Error);
  EXPECT_THROW(j.record("bad\nkey", "ok", 0, 0), Error);
}

// ---- crash-at-every-op sweep (mini-ALICE, docs/ROBUSTNESS.md) ---------------

TEST(JournalCrashSweep, SyncedRecordsSurviveEveryCrashPoint) {
  // The journal's durability contract: a record whose record() returned
  // survives ANY later crash instant. Completed record() calls are
  // visible in the trace as fsyncs of the journal file, so the invariant
  // is computable per prefix: replayed >= (syncs in prefix) - 1 (the
  // first sync covers the header).
  using storage::MemVfs;
  using storage::VfsOp;
  MemVfs vfs;
  vfs.set_record_trace(true);
  const std::string run_key = "prog/artemis/P100";
  {
    TuningJournal journal(vfs);
    const auto load = journal.open("tune.wal", run_key, /*resume=*/false);
    ASSERT_EQ(load.status, Status::Fresh);
    for (int i = 0; i < 6; ++i) {
      journal.record("cand" + std::to_string(i), "ok", 1e-3 * (i + 1), 2.0);
    }
  }
  const auto trace = vfs.trace();
  const auto syncs_in_prefix = [&](std::size_t k) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (trace[i].kind == VfsOp::Kind::Sync && trace[i].path == "tune.wal") {
        ++n;
      }
    }
    return n;
  };
  // storage::crash_sweep's invariant has no access to the prefix index k,
  // and the invariant here ("replayed >= completed syncs - 1") depends on
  // it — so run the (k, variant) sweep directly.
  std::size_t states = 0;
  for (std::size_t k = 0; k <= trace.size(); ++k) {
    const std::size_t syncs = syncs_in_prefix(k);
    const std::size_t must_have = syncs == 0 ? 0 : syncs - 1;
    for (const std::uint64_t variant : storage::default_crash_variants()) {
      ++states;
      auto state = storage::replay_prefix(trace, k, variant);
      std::map<std::string, JournalRecord> rec;
      const auto text = state->read("tune.wal").value_or("");
      const auto parsed = parse_journal_text(text, run_key, &rec);
      if (syncs > 0 && parsed.status != Status::Replayed &&
          parsed.status != Status::Missing) {
        // Before the header sync lands the file may be torn arbitrarily;
        // after it, the journal must parse.
        ADD_FAILURE() << "k=" << k << " variant=" << variant
                      << ": journal unreadable (" << parsed.message << ")";
        continue;
      }
      EXPECT_GE(parsed.replayed, must_have)
          << "k=" << k << " variant=" << variant
          << ": a completed record was lost";
      EXPECT_EQ(parsed.skipped, 0u)
          << "k=" << k << " variant=" << variant
          << ": a malformed interior line appeared";
      // Recovery must be able to continue the journal: open with resume
      // heals any torn tail (or replaces an unusable file) and appends.
      TuningJournal cont(*state);
      cont.open("tune.wal", run_key, /*resume=*/true);
      EXPECT_TRUE(cont.active())
          << "k=" << k << " variant=" << variant
          << ": journal would not reopen after recovery";
      cont.record("after-crash", "ok", 1.0, 1.0);
      std::map<std::string, JournalRecord> reread;
      parse_journal_text(state->read("tune.wal").value_or(""), run_key,
                         &reread);
      EXPECT_TRUE(reread.count("after-crash") > 0)
          << "k=" << k << " variant=" << variant
          << ": journal could not continue after recovery";
    }
  }
  EXPECT_EQ(states,
            (trace.size() + 1) * storage::default_crash_variants().size());
}

TEST(JournalFaults, WriteFailureDeactivatesInsteadOfAborting) {
  // A filesystem that starts failing mid-run must not take tuning down
  // with it: the failing record() deactivates the journal (counted as
  // journal.write_errors) and later record() calls become no-ops.
  storage::MemVfs mem;
  {
    TuningJournal seedj(mem);
    seedj.open("tune.wal", "runA", /*resume=*/false);
    seedj.record("cfg1", "ok", 1e-3, 0.4);
  }
  FaultSpec spec;
  spec.fs_fail_p = 1.0;
  spec.site = "fs.write";  // appends fail; open's read/create still work
  storage::FaultVfs faulty(mem, spec);
  TuningJournal j(faulty);
  const auto res = j.open("tune.wal", "runA", /*resume=*/true);
  ASSERT_EQ(res.status, Status::Replayed);
  ASSERT_TRUE(j.active());
  j.record("cfg2", "ok", 2e-3, 0.5);  // injected EIO — swallowed
  EXPECT_FALSE(j.active());
  EXPECT_EQ(j.recorded(), 0u);
  j.record("cfg3", "ok", 3e-3, 0.6);  // no-op, must not throw
  EXPECT_EQ(faulty.counters().failures.load(), 1u)
      << "exactly the one failing append was injected";
  // The journal on disk is untouched by the failed appends.
  TuningJournal check(mem);
  EXPECT_EQ(check.open("tune.wal", "runA", true).replayed, 1u);
}

// ---- resume-after-kill round trip through the tuner -------------------------

class JournalTuneTest : public JournalTest {
 protected:
  gpumodel::DeviceSpec dev_ = gpumodel::p100();
  gpumodel::ModelParams params_;
};

TEST_F(JournalTuneTest, ResumedTuneReplaysAndMatchesUninterruptedRun) {
  const auto prog = stencils::benchmark_program("miniflux", 128);
  const autotune::PlanFactory factory =
      [&prog, this](const codegen::KernelConfig& cfg) {
        return codegen::build_plan_for_call(prog, prog.steps[0].call, cfg,
                                            dev_);
      };
  const codegen::KernelConfig seed;

  // Uninterrupted journaled run.
  autotune::TuneOptions opts;
  TuningJournal journal;
  journal.open(path_, "runA", false);
  opts.journal = &journal;
  opts.journal_scope = "miniflux";
  const auto full = autotune::hierarchical_tune(factory, seed, dev_,
                                                params_, opts);
  EXPECT_EQ(full.journal_hits, 0);
  const std::size_t total = journal.recorded();
  ASSERT_GT(total, 100u);

  // Simulate a kill partway through: keep the header and the first half
  // of the records, tearing the final kept line mid-write.
  const std::string text = read_file();
  std::size_t cut = text.size() / 2;
  cut = text.find('\n', cut);  // a line boundary...
  ASSERT_NE(cut, std::string::npos);
  write_file(text.substr(0, cut - 7));  // ...then tear the last line

  // Resume: replayed records are served from the journal, the rest are
  // re-evaluated, and the winner is identical.
  TuningJournal resumed;
  const auto res = resumed.open(path_, "runA", true);
  EXPECT_EQ(res.status, Status::Replayed);
  EXPECT_TRUE(res.torn_tail);
  ASSERT_GT(res.replayed, 0u);
  opts.journal = &resumed;
  const auto rerun = autotune::hierarchical_tune(factory, seed, dev_,
                                                 params_, opts);
  EXPECT_GT(rerun.journal_hits, 0);
  EXPECT_EQ(autotune::serialize_config(rerun.best.config),
            autotune::serialize_config(full.best.config));
  EXPECT_DOUBLE_EQ(rerun.best.time_s, full.best.time_s);
  // Replay saved work: the resumed run appended fewer records than the
  // full run wrote, and the journal file is whole again.
  EXPECT_LT(resumed.recorded(), total);
  TuningJournal check;
  EXPECT_EQ(check.open(path_, "runA", true).replayed,
            res.replayed + resumed.recorded());
}

}  // namespace
}  // namespace artemis::robust
