// Sequence: the fundamental data type of the library.
//
// A sequence is an ordered list of numeric elements (paper §2). Sequences in
// a database may have different lengths — that is the whole point of the
// time-warping distance.
//
// Input contract: every element is finite. The paper's feature and its
// lower bound (Theorem 1) are stated for real numbers; a NaN or +-inf
// element makes Greatest/Smallest, the index predicate and every DTW step
// cost meaningless. Outside input is checked where it is decoded (text
// lines, JSON bodies, dataset files; see DESIGN.md "Input contract"), so
// the kernels carry no NaN handling. In-process construction asserts it
// in debug builds. A sequence stored in a database is also non-empty.

#ifndef WARPINDEX_SEQUENCE_SEQUENCE_H_
#define WARPINDEX_SEQUENCE_SEQUENCE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace warpindex {

// Identifier of a sequence within a Dataset / SequenceStore.
using SequenceId = int64_t;
inline constexpr SequenceId kInvalidSequenceId = -1;

// Value-semantic numeric sequence. Copyable and movable.
class Sequence {
 public:
  Sequence() = default;
  explicit Sequence(std::vector<double> elements,
                    SequenceId id = kInvalidSequenceId)
      : elements_(std::move(elements)), id_(id) {
    assert(std::all_of(elements_.begin(), elements_.end(),
                       [](double v) { return std::isfinite(v); }));
  }

  Sequence(const Sequence&) = default;
  Sequence& operator=(const Sequence&) = default;
  Sequence(Sequence&&) = default;
  Sequence& operator=(Sequence&&) = default;

  size_t size() const { return elements_.size(); }
  bool empty() const { return elements_.empty(); }

  double operator[](size_t i) const {
    assert(i < elements_.size());
    return elements_[i];
  }

  // First(S) / Last(S) in the paper's notation. Require non-empty.
  double First() const {
    assert(!elements_.empty());
    return elements_.front();
  }
  double Last() const {
    assert(!elements_.empty());
    return elements_.back();
  }

  // Greatest(S) / Smallest(S): max and min element. O(|S|); computed on
  // demand (FeatureVector caches all four — see feature.h).
  double Greatest() const;
  double Smallest() const;

  // Mean and (population) standard deviation of the elements; the query
  // generator perturbs elements by U[-std/2, +std/2] (paper §5.1).
  double Mean() const;
  double StdDev() const;

  const std::vector<double>& elements() const { return elements_; }
  const double* data() const { return elements_.data(); }

  SequenceId id() const { return id_; }
  void set_id(SequenceId id) { id_ = id; }

  void Append(double value) {
    assert(std::isfinite(value));
    elements_.push_back(value);
  }
  void Reserve(size_t n) { elements_.reserve(n); }

  // Contiguous subsequence [begin, begin + length); used by the
  // subsequence-matching extension. Requires the range to be in bounds.
  Sequence Slice(size_t begin, size_t length) const;

  // "<s1, s2, ..., sk>", truncated with an ellipsis beyond `max_elements`.
  std::string ToString(size_t max_elements = 8) const;

  friend bool operator==(const Sequence& a, const Sequence& b) {
    return a.elements_ == b.elements_;
  }

 private:
  std::vector<double> elements_;
  SequenceId id_ = kInvalidSequenceId;
};

}  // namespace warpindex

#endif  // WARPINDEX_SEQUENCE_SEQUENCE_H_
