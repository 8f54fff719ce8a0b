#include "pair/pair_batch.hpp"

#include <algorithm>
#include <memory>

#include "kokkos/core.hpp"

namespace mlk {

void PairBatch::launch() {
  if (slices_.empty()) return;

  // Cumulative row offsets: global row r belongs to the slice whose range
  // [offsets[s], offsets[s+1]) contains it. Slices and offsets move into
  // shared ownership so the per-thread functor copies stay two pointers.
  auto slices = std::make_shared<std::vector<Slice>>(std::move(slices_));
  slices_.clear();
  auto offsets = std::make_shared<std::vector<std::size_t>>();
  offsets->reserve(slices->size() + 1);
  offsets->push_back(0);
  for (const Slice& s : *slices) offsets->push_back(offsets->back() + s.rows);
  const std::size_t total = offsets->back();
  if (total == 0) {
    for (Slice& s : *slices)
      if (s.epilogue) s.epilogue();
    return;
  }

  const std::string name =
      "PairBatch::force[" + std::to_string(slices->size()) + "]";
  kk::parallel_for(
      name, kk::RangePolicy<kk::Device>(0, total), [slices, offsets](std::size_t r) {
        const auto& off = *offsets;
        const std::size_t s =
            std::size_t(std::upper_bound(off.begin(), off.end(), r) -
                        off.begin()) -
            1;
        (*slices)[s].row(r - off[s]);
      });

  for (Slice& s : *slices)
    if (s.epilogue) s.epilogue();
}

}  // namespace mlk
