// Crash-consistency sweeps (mini-ALICE): record the full VFS operation
// trace of a storage workload, then for EVERY k-operation prefix and
// every writeback variant, rebuild the filesystem a power cut at that
// instant could leave behind and assert the recovery invariants. This is
// the acceptance gate of the durable plan store: no crash instant may
// corrupt a published record, lose more than the one in-flight write, or
// leave the store unable to serve put/get.

#include <gtest/gtest.h>

#include "artemis/robust/journal.hpp"
#include "artemis/storage/crash_check.hpp"
#include "artemis/storage/plan_store.hpp"
#include "artemis/storage/vfs.hpp"

namespace artemis::storage {
namespace {

PlanRecord record_for(char nibble, double tflops) {
  PlanRecord rec;
  rec.key = std::string(32, nibble);
  rec.config = "block=8,8,4 unroll=1,1,1";
  rec.time_s = 1e-3;
  rec.tflops = tflops;
  rec.meta["device"] = "P100";
  return rec;
}

TEST(PlanStoreCrashSweep, EveryCrashPointRecovers) {
  // Record a workload: open, three puts (one overwrite), a get, compact.
  MemVfs vfs;
  vfs.set_record_trace(true);
  std::map<std::string, PlanRecord> expected;
  {
    PlanStore store(vfs, "store");
    for (const char nibble : {'1', '2', '3'}) {
      const PlanRecord rec = record_for(nibble, 1.0);
      ASSERT_TRUE(store.put(rec));
      expected[rec.key] = rec;
    }
    // Overwrite key '2' — after the second rename commits, readers must
    // see exactly the old or the new version.
    const PlanRecord rewrite = record_for('2', 2.0);
    ASSERT_TRUE(store.put(rewrite));
    expected[rewrite.key] = rewrite;
    ASSERT_TRUE(store.get(rewrite.key).has_value());
    ASSERT_TRUE(store.compact().ran);
  }
  const auto trace = vfs.trace();
  ASSERT_GT(trace.size(), 20u);

  // The overwrite means two versions of key '2' are legal, depending on
  // whether the crash lands before or after its commit rename. Express
  // that by checking against "old version allowed" until the recovered
  // state shows the new one.
  auto old2 = expected;
  old2[record_for('2', 0).key] = record_for('2', 1.0);
  const auto report = crash_sweep(
      trace, default_crash_variants(), [&](MemVfs& state) -> std::string {
        const std::string with_new =
            check_plan_store_state(state, "store", expected);
        if (with_new.empty()) return "";
        const std::string with_old =
            check_plan_store_state(state, "store", old2);
        if (with_old.empty()) return "";
        return with_new + " / " + with_old;
      });
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.states, 100u);
}

TEST(PlanStoreCrashSweep, CrashDuringQuarantineIsSafe) {
  // Corruption handling itself must be crash-safe. The whole workload —
  // including planting the bit-rotted object — goes through traced VFS
  // ops, so every replayed prefix is reachable from the empty filesystem.
  MemVfs vfs;
  vfs.set_record_trace(true);
  const PlanRecord rec = record_for('a', 1.0);
  const std::string object = "store/objects/aa/" + rec.key + ".plan";
  {
    PlanStore store(vfs, "store");  // lays down the skeleton (traced)
    std::string bytes = encode_plan_record(rec);
    bytes[bytes.size() - 2] ^= 0x01;  // flip a payload byte: CRC mismatch
    vfs.mkdirs("store/objects/aa");
    auto f = vfs.create(object, /*truncate=*/true);
    f->write(bytes);
    f->sync();
    f->close();
    ASSERT_FALSE(store.get(rec.key).has_value());  // quarantines it
    EXPECT_EQ(store.stats().drop_crc_mismatch, 1u);
  }
  // A valid version of rec.key never existed, so no crash instant may
  // make get() serve it — and recovery must always keep working.
  const auto report = crash_sweep(
      vfs.trace(), default_crash_variants(),
      [&](MemVfs& state) -> std::string {
        try {
          PlanStore store(state, "store");
          if (store.get(rec.key).has_value()) {
            return "corrupt record was served";
          }
          PlanRecord probe = record_for('b', 3.0);
          if (!store.put(probe)) return "put failed after recovery";
          if (!store.get(probe.key).has_value()) {
            return "probe missed after recovery";
          }
        } catch (const std::exception& e) {
          return std::string("recovery threw: ") + e.what();
        }
        return "";
      });
  EXPECT_TRUE(report.ok()) << report.summary();
}

// The journal's own crash-at-every-op sweep lives in journal_test.cpp
// (JournalCrashSweep.SyncedRecordsSurviveEveryCrashPoint), next to the
// rest of the journal contract tests.

}  // namespace
}  // namespace artemis::storage
