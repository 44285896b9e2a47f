#include "artemis/gpumodel/cache_sim.hpp"

#include <algorithm>
#include <bit>

#include "artemis/common/check.hpp"

namespace artemis::gpumodel {

CacheSim::CacheSim(std::int64_t capacity_bytes, int line_bytes, int ways)
    : line_bytes_(line_bytes),
      line_shift_(std::countr_zero(static_cast<unsigned>(line_bytes))),
      ways_(ways) {
  ARTEMIS_CHECK(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
  ARTEMIS_CHECK_MSG((line_bytes & (line_bytes - 1)) == 0,
                    "line size must be a power of two");
  const std::int64_t lines = capacity_bytes / line_bytes;
  num_sets_ = static_cast<std::size_t>(lines / ways);
  if (num_sets_ == 0) num_sets_ = 1;
  tags_.assign(num_sets_ * static_cast<std::size_t>(ways_), 0);
  fill_.assign(num_sets_, 0);
}

bool CacheSim::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::size_t set = static_cast<std::size_t>(line) % num_sets_;
  std::uint64_t* mru = &tags_[set * static_cast<std::size_t>(ways_)];
  std::uint32_t& fill = fill_[set];
  for (std::uint32_t i = 0; i < fill; ++i) {
    if (mru[i] == line) {
      std::copy_backward(mru, mru + i, mru + i + 1);
      mru[0] = line;
      ++hits_;
      return true;
    }
  }
  // A miss fills the front; in a full set the least recently used line
  // falls off the back.
  if (fill < static_cast<std::uint32_t>(ways_)) ++fill;
  std::copy_backward(mru, mru + fill - 1, mru + fill);
  mru[0] = line;
  ++misses_;
  return false;
}

void CacheSim::reset() {
  std::fill(fill_.begin(), fill_.end(), 0);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace artemis::gpumodel
