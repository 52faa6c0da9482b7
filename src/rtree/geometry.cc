#include "rtree/geometry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace warpindex {

Point Point::Make(std::initializer_list<double> values) {
  assert(values.size() <= kMaxRTreeDims);
  Point p;
  p.dims = static_cast<int>(values.size());
  int i = 0;
  for (double v : values) {
    p.coords[static_cast<size_t>(i++)] = v;
  }
  return p;
}

Point Point::FromArray(const double* values, int dims) {
  assert(dims >= 0 && dims <= kMaxRTreeDims);
  Point p;
  p.dims = dims;
  std::copy(values, values + dims, p.coords.begin());
  return p;
}

std::string Point::ToString() const {
  std::ostringstream os;
  os << "(";
  for (int d = 0; d < dims; ++d) {
    if (d > 0) os << ", ";
    os << coords[static_cast<size_t>(d)];
  }
  os << ")";
  return os.str();
}

Rect RectView::ToRect() const {
  assert(dims_ >= 0 && dims_ <= kMaxRTreeDims);
  Rect r;
  r.dims = dims_;
  std::copy(bounds_, bounds_ + 2 * dims_, r.bounds.begin());
  return r;
}

bool RectView::IsValid() const {
  if (dims_ <= 0 || dims_ > kMaxRTreeDims) {
    return false;
  }
  for (int d = 0; d < dims_; ++d) {
    if (min(d) > max(d)) {
      return false;
    }
  }
  return true;
}

double RectView::Area() const {
  double area = 1.0;
  for (int d = 0; d < dims_; ++d) {
    area *= max(d) - min(d);
  }
  return area;
}

double RectView::Margin() const {
  double margin = 0.0;
  for (int d = 0; d < dims_; ++d) {
    margin += max(d) - min(d);
  }
  return margin;
}

bool RectView::Intersects(RectView other) const {
  assert(dims_ == other.dims_);
  for (int d = 0; d < dims_; ++d) {
    if (min(d) > other.max(d) || max(d) < other.min(d)) {
      return false;
    }
  }
  return true;
}

bool RectView::Contains(RectView other) const {
  assert(dims_ == other.dims_);
  for (int d = 0; d < dims_; ++d) {
    if (other.min(d) < min(d) || other.max(d) > max(d)) {
      return false;
    }
  }
  return true;
}

bool RectView::ContainsPoint(const Point& p) const {
  assert(dims_ == p.dims);
  for (int d = 0; d < dims_; ++d) {
    if (p[d] < min(d) || p[d] > max(d)) {
      return false;
    }
  }
  return true;
}

double RectView::UnionArea(RectView other) const {
  assert(dims_ == other.dims_);
  double area = 1.0;
  for (int d = 0; d < dims_; ++d) {
    area *= std::max(max(d), other.max(d)) - std::min(min(d), other.min(d));
  }
  return area;
}

double RectView::OverlapArea(RectView other) const {
  assert(dims_ == other.dims_);
  double area = 1.0;
  for (int d = 0; d < dims_; ++d) {
    const double side =
        std::min(max(d), other.max(d)) - std::max(min(d), other.min(d));
    if (side <= 0.0) {
      return 0.0;
    }
    area *= side;
  }
  return area;
}

double RectView::MinDistSquared(const Point& p) const {
  assert(dims_ == p.dims);
  double total = 0.0;
  for (int d = 0; d < dims_; ++d) {
    double delta = 0.0;
    if (p[d] < min(d)) {
      delta = min(d) - p[d];
    } else if (p[d] > max(d)) {
      delta = p[d] - max(d);
    }
    total += delta * delta;
  }
  return total;
}

double RectView::MinDistLinf(const Point& p) const {
  assert(dims_ == p.dims);
  double worst = 0.0;
  for (int d = 0; d < dims_; ++d) {
    double delta = 0.0;
    if (p[d] < min(d)) {
      delta = min(d) - p[d];
    } else if (p[d] > max(d)) {
      delta = p[d] - max(d);
    }
    worst = std::max(worst, delta);
  }
  return worst;
}

std::string RectView::ToString() const {
  std::ostringstream os;
  os << "[";
  for (int d = 0; d < dims_; ++d) {
    if (d > 0) os << " x ";
    os << "(" << min(d) << ", " << max(d) << ")";
  }
  os << "]";
  return os.str();
}

bool operator==(RectView a, RectView b) {
  return a.dims_ == b.dims_ &&
         std::equal(a.bounds_, a.bounds_ + 2 * a.dims_, b.bounds_);
}

Rect Rect::FromPoint(const Point& p) {
  Rect r;
  r.dims = p.dims;
  for (int d = 0; d < p.dims; ++d) {
    r.Set(d, p[d], p[d]);
  }
  return r;
}

Rect Rect::SquareAround(const Point& center, double radius) {
  assert(radius >= 0.0);
  Rect r;
  r.dims = center.dims;
  for (int d = 0; d < center.dims; ++d) {
    r.Set(d, center[d] - radius, center[d] + radius);
  }
  return r;
}

Rect Rect::Make(std::initializer_list<double> mins,
                std::initializer_list<double> maxs) {
  assert(mins.size() == maxs.size());
  assert(mins.size() <= kMaxRTreeDims);
  Rect r;
  r.dims = static_cast<int>(mins.size());
  const double* lo = mins.begin();
  const double* hi = maxs.begin();
  for (int d = 0; d < r.dims; ++d) {
    r.Set(d, lo[d], hi[d]);
  }
  return r;
}

void Rect::Expand(RectView other) {
  assert(dims == other.dims());
  for (int d = 0; d < dims; ++d) {
    Set(d, std::min(min(d), other.min(d)), std::max(max(d), other.max(d)));
  }
}

Rect Rect::UnionWith(RectView other) const {
  Rect r = *this;
  r.Expand(other);
  return r;
}

}  // namespace warpindex
