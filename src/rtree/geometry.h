// Points and hyper-rectangles for the multi-dimensional index.
//
// Dimensionality is a runtime parameter (the paper's feature index is 4-d;
// the FastMap index is k-d for user-chosen k), bounded by kMaxRTreeDims.
//
// Bounds are laid out interleaved, (min_0, max_0, min_1, max_1, ...): the
// order of one entry on an index page (rtree/rtree_io.h) and in a node's
// entry array (rtree/node.h). RectView reads 2 * dims such doubles
// wherever they live and holds every geometric predicate once. Rect and
// Point are fixed-capacity value types for query boxes, partition MBRs
// and split scratch; node entries never hold one, so a stored 4-d entry
// costs 8 doubles, not 2 * kMaxRTreeDims.

#ifndef WARPINDEX_RTREE_GEOMETRY_H_
#define WARPINDEX_RTREE_GEOMETRY_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <string>

namespace warpindex {

inline constexpr int kMaxRTreeDims = 16;

// A point in `dims`-dimensional space.
struct Point {
  std::array<double, kMaxRTreeDims> coords{};
  int dims = 0;

  static Point Make(std::initializer_list<double> values);
  static Point FromArray(const double* values, int dims);

  double operator[](int d) const {
    assert(d >= 0 && d < dims);
    return coords[static_cast<size_t>(d)];
  }
  double& operator[](int d) {
    assert(d >= 0 && d < dims);
    return coords[static_cast<size_t>(d)];
  }

  std::string ToString() const;
};

struct Rect;

// A non-owning, read-only view of an axis-aligned hyper-rectangle (MBR):
// `2 * dims` interleaved bounds starting at `bounds`.
class RectView {
 public:
  RectView(const double* bounds, int dims) : bounds_(bounds), dims_(dims) {}

  int dims() const { return dims_; }
  const double* bounds() const { return bounds_; }
  double min(int d) const { return bounds_[2 * d]; }
  double max(int d) const { return bounds_[2 * d + 1]; }
  double Center(int d) const { return (min(d) + max(d)) / 2.0; }

  Rect ToRect() const;

  bool IsValid() const;

  // Volume of the rectangle (the classical R-tree "area").
  double Area() const;
  // Sum of side lengths ("margin" in the R*-tree sense).
  double Margin() const;

  bool Intersects(RectView other) const;
  bool Contains(RectView other) const;
  bool ContainsPoint(const Point& p) const;

  // Area of the smallest rectangle enclosing this and `other`.
  double UnionArea(RectView other) const;
  // UnionArea(other) - Area(): the enlargement needed to absorb `other`
  // (Guttman's ChooseLeaf criterion).
  double Enlargement(RectView other) const {
    return UnionArea(other) - Area();
  }
  // Volume of the intersection; 0 when disjoint.
  double OverlapArea(RectView other) const;

  // MINDIST(p, R): squared L2 distance from a point to the rectangle; the
  // standard kNN branch-and-bound bound. Zero when p is inside.
  double MinDistSquared(const Point& p) const;

  // L_inf MINDIST: max over dimensions of the per-axis distance from p to
  // the rectangle. For any x inside R, Linf(p, x) >= MinDistLinf(p, R) —
  // the bound that drives the exact D_tw kNN search (the feature lower
  // bound is an L_inf metric).
  double MinDistLinf(const Point& p) const;

  std::string ToString() const;

  friend bool operator==(RectView a, RectView b);

 private:
  const double* bounds_;
  int dims_;
};

// An owned rectangle of up to kMaxRTreeDims dimensions. Converts
// implicitly to a RectView, and forwards the view's predicates.
struct Rect {
  std::array<double, 2 * kMaxRTreeDims> bounds{};
  int dims = 0;

  // Degenerate rectangle covering a single point.
  static Rect FromPoint(const Point& p);
  // Square-range rectangle: [center_d - radius, center_d + radius] in every
  // dimension — the paper's range query (Algorithm 1, Step-2).
  static Rect SquareAround(const Point& center, double radius);
  static Rect Make(std::initializer_list<double> mins,
                   std::initializer_list<double> maxs);

  RectView view() const { return RectView(bounds.data(), dims); }
  // Implicit, so a Rect goes wherever a view is taken.
  operator RectView() const { return view(); }

  double min(int d) const { return view().min(d); }
  double max(int d) const { return view().max(d); }
  void Set(int d, double lo, double hi) {
    assert(d >= 0 && d < kMaxRTreeDims);
    bounds[static_cast<size_t>(2 * d)] = lo;
    bounds[static_cast<size_t>(2 * d + 1)] = hi;
  }

  // Grows this rectangle in place to enclose `other`.
  void Expand(RectView other);
  // Smallest rectangle enclosing this and `other`.
  Rect UnionWith(RectView other) const;

  bool IsValid() const { return view().IsValid(); }
  double Area() const { return view().Area(); }
  double Margin() const { return view().Margin(); }
  double Center(int d) const { return view().Center(d); }
  bool Intersects(RectView other) const { return view().Intersects(other); }
  bool Contains(RectView other) const { return view().Contains(other); }
  bool ContainsPoint(const Point& p) const { return view().ContainsPoint(p); }
  double Enlargement(RectView other) const {
    return view().Enlargement(other);
  }
  double OverlapArea(RectView other) const {
    return view().OverlapArea(other);
  }
  double MinDistSquared(const Point& p) const {
    return view().MinDistSquared(p);
  }
  double MinDistLinf(const Point& p) const { return view().MinDistLinf(p); }
  std::string ToString() const { return view().ToString(); }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.view() == b.view();
  }
};

}  // namespace warpindex

#endif  // WARPINDEX_RTREE_GEOMETRY_H_
