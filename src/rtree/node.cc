#include "rtree/node.h"

#include <algorithm>
#include <cassert>

namespace warpindex {

void EntryArray::Reserve(size_t n) {
  bounds_.reserve(n * Stride());
  refs_.reserve(n);
}

void EntryArray::Push(RectView rect, int64_t ref) {
  assert(rect.dims() == dims_);
  bounds_.insert(bounds_.end(), rect.bounds(), rect.bounds() + Stride());
  refs_.push_back(ref);
}

void EntryArray::SetRect(size_t i, RectView rect) {
  assert(rect.dims() == dims_ && i < size());
  std::copy(rect.bounds(), rect.bounds() + Stride(),
            bounds_.begin() + static_cast<ptrdiff_t>(i * Stride()));
}

void EntryArray::Erase(size_t i) {
  assert(i < size());
  const auto first = bounds_.begin() + static_cast<ptrdiff_t>(i * Stride());
  bounds_.erase(first, first + static_cast<ptrdiff_t>(Stride()));
  refs_.erase(refs_.begin() + static_cast<ptrdiff_t>(i));
}

Rect EntryArray::Mbr() const {
  assert(!empty());
  Rect mbr = rect(0).ToRect();
  for (size_t i = 1; i < size(); ++i) {
    mbr.Expand(rect(i));
  }
  return mbr;
}

size_t EntryArray::ResidentBytes() const {
  return bounds_.capacity() * sizeof(double) +
         refs_.capacity() * sizeof(int64_t);
}

size_t EntryBytes(int dims) {
  return static_cast<size_t>(dims) * 2 * sizeof(double) + sizeof(int64_t);
}

size_t NodeCapacityForPage(size_t page_size_bytes, int dims,
                           size_t header_bytes) {
  const size_t payload =
      page_size_bytes > header_bytes ? page_size_bytes - header_bytes : 0;
  return std::max<size_t>(2, payload / EntryBytes(dims));
}

}  // namespace warpindex
