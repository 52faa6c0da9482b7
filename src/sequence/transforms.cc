#include "sequence/transforms.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace warpindex {
namespace {

// Moves `values` into *out if every one is finite; otherwise names the
// first that is not.
Status Finish(const char* what, std::vector<double> values, Sequence* out) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          std::string(what) + ": element " + std::to_string(i) +
          " of the result is not finite (" + std::to_string(values[i]) + ")");
    }
  }
  *out = Sequence(std::move(values));
  return Status::Ok();
}

// Applies f to every element.
template <typename F>
Status Map(const char* what, const Sequence& s, F f, Sequence* out) {
  std::vector<double> values;
  values.reserve(s.size());
  for (double v : s.elements()) {
    values.push_back(f(v));
  }
  return Finish(what, std::move(values), out);
}

}  // namespace

Status Shift(const Sequence& s, double offset, Sequence* out) {
  return Map("Shift", s, [offset](double v) { return v + offset; }, out);
}

Status Scale(const Sequence& s, double factor, Sequence* out) {
  return Map("Scale", s, [factor](double v) { return v * factor; }, out);
}

Status ZNormalize(const Sequence& s, Sequence* out) {
  if (s.empty()) {
    return Status::InvalidArgument("ZNormalize: empty sequence");
  }
  const double mean = s.Mean();
  const double std = s.StdDev();
  // Past about 1e154 the variance overflows, and dividing by an infinite
  // std would map every element to 0.
  if (!std::isfinite(mean) || !std::isfinite(std)) {
    return Status::InvalidArgument(
        "ZNormalize: mean or standard deviation overflows");
  }
  return Map(
      "ZNormalize", s,
      [mean, std](double v) { return std > 0.0 ? (v - mean) / std : 0.0; },
      out);
}

Status MinMaxNormalize(const Sequence& s, Sequence* out) {
  if (s.empty()) {
    return Status::InvalidArgument("MinMaxNormalize: empty sequence");
  }
  const double lo = s.Smallest();
  const double span = s.Greatest() - lo;
  return Map(
      "MinMaxNormalize", s,
      [lo, span](double v) { return span > 0.0 ? (v - lo) / span : 0.0; },
      out);
}

Status MovingAverage(const Sequence& s, size_t window, Sequence* out) {
  if (window < 1 || window > s.size()) {
    return Status::InvalidArgument(
        "MovingAverage: window " + std::to_string(window) +
        " outside [1, " + std::to_string(s.size()) + "]");
  }
  std::vector<double> values;
  values.reserve(s.size() - window + 1);
  double sum = 0.0;
  for (size_t i = 0; i < s.size(); ++i) {
    sum += s[i];
    if (i + 1 >= window) {
      values.push_back(sum / static_cast<double>(window));
      sum -= s[i + 1 - window];
    }
  }
  return Finish("MovingAverage", std::move(values), out);
}

Status Difference(const Sequence& s, Sequence* out) {
  if (s.size() < 2) {
    return Status::InvalidArgument("Difference: needs at least 2 elements");
  }
  std::vector<double> values;
  values.reserve(s.size() - 1);
  for (size_t i = 1; i < s.size(); ++i) {
    values.push_back(s[i] - s[i - 1]);
  }
  return Finish("Difference", std::move(values), out);
}

}  // namespace warpindex
