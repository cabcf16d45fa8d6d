#include "audit/offset_mapper.h"

#include <vector>

namespace kondo {

IndexSet OffsetMapper::IndicesForRanges(const IntervalSet& ranges) const {
  // A row-major layout yields ascending ids, which the builder appends in
  // order; a chunked layout's are sorted once in Build().
  IndexSet::Builder result(layout_->shape());
  std::vector<Index> scratch;
  for (const Interval& range : ranges.ToIntervals()) {
    scratch.clear();
    layout_->ElementsInByteRange(range.begin - payload_offset_,
                                 range.end - payload_offset_, &scratch);
    for (const Index& index : scratch) {
      result.Insert(index);
    }
  }
  return result.Build();
}

IntervalSet OffsetMapper::RangesForIndices(const IndexSet& indices) const {
  // Ascending ids give ascending bytes only in a row-major layout.
  IntervalSet::Builder ranges;
  indices.ForEach([this, &ranges](const Index& index) {
    ranges.Add(RangeForIndex(index));
  });
  return ranges.Build();
}

Interval OffsetMapper::RangeForIndex(const Index& index) const {
  Interval range = layout_->ByteRangeOf(index);
  range.begin += payload_offset_;
  range.end += payload_offset_;
  return range;
}

}  // namespace kondo
