#include "artemis/metrics/metrics.hpp"

#include <algorithm>
#include <bit>

#include "artemis/common/check.hpp"
#include "artemis/gpumodel/cache_sim.hpp"

namespace artemis::metrics {

namespace {

/// One bit per line of the trace's flat line space.
using LineBits = std::vector<std::uint64_t>;

void insert(LineBits& bits, std::uint64_t line) {
  bits[line >> 6] |= std::uint64_t{1} << (line & 63);
}

std::int64_t count(const LineBits& bits) {
  std::int64_t n = 0;
  for (const std::uint64_t word : bits) n += std::popcount(word);
  return n;
}

/// Lines in `a` or `b` within the line range [lo, hi).
std::int64_t count_union(const LineBits& a, const LineBits& b,
                         std::uint64_t lo, std::uint64_t hi) {
  std::int64_t n = 0;
  for (std::uint64_t w = lo >> 6; w << 6 < hi; ++w) {
    std::uint64_t word = a[w] | b[w];
    if (w << 6 < lo) word &= ~std::uint64_t{0} << (lo & 63);
    if ((w + 1) << 6 > hi) word &= ~(~std::uint64_t{0} << (hi & 63));
    n += std::popcount(word);
  }
  return n;
}

/// Per-array request attribution. Arrays are disjoint, line-aligned,
/// slot-ordered ranges of the flat line space: array i holds the lines
/// [first_line[i], first_line[i + 1]), and the last entry of first_line
/// ends the line space.
struct ArrayAttribution {
  std::vector<std::uint64_t> first_line;
  std::vector<ArrayMetrics>& arrays;
};

/// Replay accumulator for one metrics scope (a stage or the aggregate):
/// folds tagged line-stream entries into request counts, the exact sets
/// of read and of written lines, and the cache simulation.
struct Replay {
  gpumodel::CacheSim sim;
  std::uint64_t line_bytes;
  std::int64_t read_requests = 0;
  std::int64_t write_requests = 0;
  std::int64_t read_misses = 0;
  LineBits read_lines;
  LineBits write_lines;

  Replay(std::int64_t capacity, int line, std::uint64_t space_lines)
      : sim(capacity, line),
        line_bytes(static_cast<std::uint64_t>(line)),
        read_lines((space_lines + 63) / 64, 0),
        write_lines(read_lines.size(), 0) {}

  void reset() {
    sim.reset();
    read_requests = write_requests = read_misses = 0;
    std::fill(read_lines.begin(), read_lines.end(), 0);
    std::fill(write_lines.begin(), write_lines.end(), 0);
  }

  /// With `attribution`, also counts every entry against its array.
  void feed(const std::vector<std::uint32_t>& lines,
            const ArrayAttribution* attribution) {
    for (const std::uint32_t entry : lines) {
      const bool is_write = (entry & sim::kTraceWriteBit) != 0;
      const std::uint64_t line = entry & ~sim::kTraceWriteBit;
      const bool hit = sim.access(line * line_bytes);
      if (is_write) {
        ++write_requests;
        insert(write_lines, line);
      } else {
        ++read_requests;
        if (!hit) ++read_misses;
        insert(read_lines, line);
      }
      if (attribution != nullptr) {
        const std::vector<std::uint64_t>& first = attribution->first_line;
        const auto i =
            std::upper_bound(first.begin(), first.end(), line) - first.begin();
        ArrayMetrics& a = attribution->arrays[static_cast<std::size_t>(i - 1)];
        ++(is_write ? a.write_line_requests : a.read_line_requests);
      }
    }
  }

  void finish(StageMetrics& m) const {
    const auto lb = static_cast<std::int64_t>(line_bytes);
    m.read_line_requests = read_requests;
    m.write_line_requests = write_requests;
    m.unique_read_lines = count(read_lines);
    m.unique_write_lines = count(write_lines);
    m.unique_lines =
        count_union(read_lines, write_lines, 0, read_lines.size() * 64);
    m.tex_bytes = read_requests * lb;
    m.dram_read_bytes = read_misses * lb;
    m.dram_write_bytes = m.unique_write_lines * lb;
    m.working_set_bytes = m.unique_lines * lb;
    m.l2_hit_rate = sim.hit_rate();
    m.redundant_load_fraction =
        read_requests > 0
            ? 1.0 - static_cast<double>(m.unique_read_lines) / read_requests
            : 0.0;
  }
};

void fold_counters(StageMetrics& m, const sim::StageTrace& t) {
  m.interior_points += t.interior.computed;
  m.rim_points += t.rim.computed;
  m.skipped_points += t.interior.skipped + t.rim.skipped;
  m.interior_flops += t.flops_per_point * t.interior.computed;
  m.rim_flops += t.flops_per_point * t.rim.computed;
  m.flops = m.interior_flops + m.rim_flops;
  m.global_read_elems += t.interior.greads + t.rim.greads;
  m.global_write_elems += t.interior.gwrites + t.rim.gwrites;
  m.scratch_read_elems += t.interior.sreads + t.rim.sreads;
  m.scratch_write_elems += t.interior.swrites + t.rim.swrites;
  m.shm_bytes = (m.scratch_read_elems + m.scratch_write_elems) *
                static_cast<std::int64_t>(sizeof(double));
}

}  // namespace

PlanMetrics measure_plan(const codegen::KernelPlan& plan, sim::GridSet& gs,
                         const gpumodel::DeviceSpec& dev,
                         const sim::ExecOptions& base) {
  sim::PlanTrace trace;
  sim::ExecOptions opts = base;
  // Strict native counting records the same streams and counters as the
  // bytecode engine and leaves the same grids; fast math would not.
  opts.engine = sim::SimEngine::Native;
  opts.native_fast_math = false;
  opts.trace = &trace;

  PlanMetrics pm;
  pm.exec = sim::execute_plan(plan, gs, opts);
  pm.line_bytes = trace.line_bytes;
  const auto lb = static_cast<std::uint64_t>(trace.line_bytes);

  // Every stream entry is a line of one array, so the arrays' line
  // ranges bound the line space the replays track.
  std::uint64_t space_lines = 0;
  ArrayAttribution attribution{{}, pm.arrays};
  for (const auto& a : trace.arrays) {
    pm.arrays.emplace_back().name = a.name;
    attribution.first_line.push_back(a.elem_base / lb);
    const std::uint64_t end =
        a.elem_base + static_cast<std::uint64_t>(a.elems) * sizeof(double);
    space_lines = std::max(space_lines, (end + lb - 1) / lb);
  }
  attribution.first_line.push_back(space_lines);

  // The replayed cache models the device L2 at the trace's line size. The
  // aggregate replays every stage and the write-backs. Stage 0 starts from
  // the same cold cache alone and in the aggregate, so the aggregate just
  // after stage 0 is stage 0's replay; later stages replay alone on a
  // reset copy.
  Replay aggregate(dev.l2_bytes, trace.line_bytes, space_lines);
  Replay stage_replay(dev.l2_bytes, trace.line_bytes, space_lines);
  pm.totals.name = "total";

  pm.stages.reserve(trace.stages.size());
  for (std::size_t s = 0; s < trace.stages.size(); ++s) {
    const sim::StageTrace& t = trace.stages[s];
    StageMetrics m;
    m.name = s < plan.stages.size() ? plan.stages[s].name : "";
    fold_counters(m, t);
    aggregate.feed(t.lines, &attribution);
    if (s == 0) {
      aggregate.finish(m);
    } else {
      stage_replay.reset();
      stage_replay.feed(t.lines, nullptr);
      stage_replay.finish(m);
    }
    fold_counters(pm.totals, t);
    pm.stages.push_back(std::move(m));
  }
  // Materialized-internal write-backs: pure global stores, attributed to
  // the aggregate only (they happen after the stage sweeps).
  fold_counters(pm.totals, trace.writeback);
  aggregate.feed(trace.writeback.lines, &attribution);
  aggregate.finish(pm.totals);
  pm.l2_capacity_bytes = aggregate.sim.capacity_bytes();

  for (std::size_t i = 0; i < pm.arrays.size(); ++i) {
    pm.arrays[i].working_set_bytes =
        count_union(aggregate.read_lines, aggregate.write_lines,
                    attribution.first_line[i], attribution.first_line[i + 1]) *
        pm.line_bytes;
  }
  return pm;
}

}  // namespace artemis::metrics
