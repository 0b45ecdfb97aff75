// Mean-Shift clustering (Fukunaga & Hostetler 1975), implemented from
// scratch for MOSAIC's periodicity detector (paper §III-B3a).
//
// Segments of a trace are embedded as low-dimensional feature points
// (duration, volume); Mean-Shift finds density modes without a preset
// cluster count — exactly why the paper prefers it over k-means: a trace may
// contain zero, one or several periodic operations. Groups of size >= 2
// correspond to repeated (periodic) segments.
//
// The implementation offers the flat (uniform ball) kernel the classic
// algorithm uses and a Gaussian kernel, plus a uniform-grid neighborhood
// index that keeps iteration cost near O(n) for the small, well-separated
// point sets segmentation produces. The grid is an open-addressing flat hash
// over packed (zigzag-encoded) cell keys with CSR point lists, and all
// per-call scratch lives in a reusable MeanShiftWorkspace so the steady-state
// batch path runs allocation-free (DESIGN.md §12).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace mosaic::cluster {

/// Kernel used to weight neighbors during the shift step.
enum class Kernel : std::uint8_t {
  kFlat,      ///< uniform weight inside the bandwidth ball
  kGaussian,  ///< exp(-d^2 / (2 h^2)), truncated at 3h
};

/// Mean-Shift parameters.
struct MeanShiftConfig {
  double bandwidth = 0.12;   ///< kernel radius in feature space
  Kernel kernel = Kernel::kFlat;       ///< neighbor weighting
  std::size_t max_iterations = 200;   ///< per-point shift iterations
  double convergence_tol = 1e-5;      ///< stop when shift distance < tol
  double mode_merge_radius = -1.0;    ///< modes closer than this merge;
                                      ///< < 0 means bandwidth / 2
};

/// Clustering result. labels[i] is the cluster of point i; clusters are
/// numbered 0..mode_count-1 in decreasing size order.
struct MeanShiftResult {
  std::vector<std::size_t> labels;          ///< cluster index per input point
  std::vector<std::vector<double>> modes;   ///< converged mode per cluster
  std::vector<std::size_t> cluster_sizes;   ///< points per cluster
  std::size_t total_iterations = 0;         ///< shift iterations, all points
};

/// Squared Euclidean distance between two equal-length vectors.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b) noexcept;

/// A set of points with a fixed dimensionality, stored row-major in one
/// contiguous buffer (point i occupies data()[i*dim .. i*dim+dim)).
class PointSet {
 public:
  /// Precondition: dim >= 1.
  explicit PointSet(std::size_t dim);

  /// Appends one point. Precondition: point.size() == dim().
  void add(std::span<const double> point);

  /// Drops all points and switches to `dim` coordinates per point, keeping
  /// the underlying capacity. Lets a workspace reuse one PointSet across
  /// traces without reallocating. Precondition: dim >= 1.
  void reset(std::size_t dim);

  /// Number of coordinates per point.
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Number of points.
  [[nodiscard]] std::size_t size() const noexcept {
    return data_.size() / dim_;
  }
  /// The i-th point as a dim()-length view.
  [[nodiscard]] std::span<const double> point(std::size_t i) const noexcept {
    return {data_.data() + i * dim_, dim_};
  }
  /// The whole row-major coordinate buffer.
  [[nodiscard]] std::span<const double> raw() const noexcept { return data_; }

 private:
  friend void min_max_scale(const PointSet& points, PointSet& out);

  std::size_t dim_;
  std::vector<double> data_;
};

/// Uniform-grid spatial index over a point set: an open-addressing flat hash
/// maps packed cell keys to CSR point lists, so a radius query touches the
/// 3^dim neighboring cells and nothing else. Cell size must be >= the query
/// radius for the 1-ring scan to be exhaustive.
///
/// Cell coordinates come from floor(p[d] / cell), which is exact for
/// negative coordinates too; keys are zigzag-packed so negative cells hash
/// without wrap-around, and lookups compare the full coordinate tuple, never
/// just the hash. The CSR lists hold copies of the points' coordinates, so a
/// query reads a cell's points as one contiguous row-major run. All storage
/// is reused across build() calls.
class GridIndex {
 public:
  /// Dimensionality ceiling of the stack-allocated cell-probe buffers.
  static constexpr std::size_t kMaxDim = 8;

  GridIndex() = default;

  /// (Re)builds the index over `points` with the given cell size (clamped to
  /// a small positive minimum). The points are copied, so `points` need not
  /// outlive the index; existing hash and CSR storage is reused.
  /// Precondition: points.dim() <= kMaxDim.
  void build(const PointSet& points, double cell);

  /// Invokes `fn(coords)` for every non-empty cell of the 3^dim ring around
  /// `center`, in cell-probe order (odometer over the ring, first dimension
  /// fastest). `coords` holds the cell's points row-major, dim() values
  /// each, in ascending point index — a deterministic order independent of
  /// hash layout. Every point within the build's cell size of `center` lies
  /// in one of the visited cells; filtering by distance is the caller's.
  template <typename Fn>
  void for_cells_around(std::span<const double> center, Fn&& fn) const {
    const std::size_t dim = dim_;
    std::int64_t base[kMaxDim];
    std::int64_t probe[kMaxDim];
    int offset[kMaxDim];
    for (std::size_t d = 0; d < dim; ++d) {
      base[d] = cell_coord(center[d]);
      offset[d] = -1;
    }
    // Enumerate the 3^dim neighboring cells via odometer increment.
    for (;;) {
      for (std::size_t d = 0; d < dim; ++d) probe[d] = base[d] + offset[d];
      if (const std::uint32_t cell = find_cell({probe, dim});
          cell != kNoCell) {
        const std::uint32_t begin = cell_start_[cell];
        const std::uint32_t count = cell_start_[cell + 1] - begin;
        fn(std::span<const double>{point_coords_.data() + begin * dim,
                                   count * dim});
      }
      std::size_t d = 0;
      while (d < dim && ++offset[d] > 1) {
        offset[d] = -1;
        ++d;
      }
      if (d == dim) break;
    }
  }

 private:
  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  [[nodiscard]] std::int64_t cell_coord(double v) const noexcept {
    return static_cast<std::int64_t>(std::floor(v / cell_));
  }
  [[nodiscard]] static std::uint64_t pack_key(
      std::span<const std::int64_t> coords) noexcept;
  [[nodiscard]] std::uint32_t find_cell(
      std::span<const std::int64_t> coords) const noexcept;

  double cell_ = 1.0;
  std::size_t dim_ = 0;
  std::size_t mask_ = 0;                    ///< slot count - 1 (power of two)
  std::vector<std::uint32_t> slots_;        ///< open addressing: cell id
  std::vector<std::uint64_t> cell_key_;     ///< packed key per cell
  std::vector<std::int64_t> cell_coords_;   ///< dim coords per cell
  std::vector<std::uint32_t> cell_start_;   ///< CSR offsets (cells + 1)
  std::vector<double> point_coords_;        ///< CSR point coordinates
  std::vector<std::uint32_t> point_cell_;   ///< build scratch: cell per point
};

/// Reusable scratch for mean_shift(): the grid index plus the per-point
/// converged-position, label and mode-merge buffers. One instance per worker
/// thread; after the first few traces every buffer has reached its
/// high-water capacity and mean_shift() stops allocating (DESIGN.md §12).
/// Contents are an implementation detail of mean_shift().
struct MeanShiftWorkspace {
  GridIndex grid;                     ///< neighbor index, storage reused
  std::vector<double> converged;      ///< n*dim converged position per point
  std::vector<double> modes;          ///< flat m*dim merged mode buffer
  std::vector<std::size_t> raw_label; ///< first-seen mode per point
  std::vector<std::size_t> sizes;     ///< points per raw mode
  std::vector<std::size_t> order;     ///< modes sorted by decreasing size
  std::vector<std::size_t> rank;      ///< raw mode -> final cluster index
};

/// Rescales each coordinate to [0, 1] by column min/max (constant columns
/// map to 0). Returns the scaled copy; the original is untouched.
/// Equal-importance scaling is what makes one bandwidth meaningful across
/// the duration and volume axes.
[[nodiscard]] PointSet min_max_scale(const PointSet& points);

/// As above, but writes into `out` (reset to points.dim(), storage reused) —
/// the allocation-free form the analyzer workspace uses.
/// Precondition: `out` is not `points`.
void min_max_scale(const PointSet& points, PointSet& out);

/// Runs Mean-Shift over `points`. Empty input yields an empty result.
/// Convenience form: allocates a fresh workspace per call.
[[nodiscard]] MeanShiftResult mean_shift(const PointSet& points,
                                         const MeanShiftConfig& config = {});

/// Workspace form: all scratch comes from `workspace` and the clustering is
/// written into `out` (previous contents discarded, storage reused). Results
/// are identical to the convenience form bit for bit — workspaces only
/// change where the buffers live, never the arithmetic.
void mean_shift(const PointSet& points, const MeanShiftConfig& config,
                MeanShiftWorkspace& workspace, MeanShiftResult& out);

}  // namespace mosaic::cluster
