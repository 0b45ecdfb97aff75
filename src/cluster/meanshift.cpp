#include "cluster/meanshift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace mosaic::cluster {

PointSet::PointSet(std::size_t dim) : dim_(dim) { MOSAIC_ASSERT(dim >= 1); }

void PointSet::add(std::span<const double> point) {
  MOSAIC_ASSERT(point.size() == dim_);
  data_.insert(data_.end(), point.begin(), point.end());
}

void PointSet::reset(std::size_t dim) {
  MOSAIC_ASSERT(dim >= 1);
  dim_ = dim;
  data_.clear();
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept {
  MOSAIC_ASSERT(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

PointSet min_max_scale(const PointSet& points) {
  PointSet scaled(points.dim());
  min_max_scale(points, scaled);
  return scaled;
}

void min_max_scale(const PointSet& points, PointSet& out) {
  const std::size_t dim = points.dim();
  const std::size_t n = points.size();
  MOSAIC_ASSERT(&out != &points);
  // Column extrema on the stack: feature embeddings are low-dimensional by
  // construction (the GridIndex shares the same ceiling).
  MOSAIC_ASSERT(dim <= GridIndex::kMaxDim);
  double lo[GridIndex::kMaxDim];
  double hi[GridIndex::kMaxDim];
  for (std::size_t d = 0; d < dim; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    hi[d] = -std::numeric_limits<double>::infinity();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = points.point(i);
    for (std::size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  out.reset(dim);
  out.data_.resize(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = points.point(i);
    for (std::size_t d = 0; d < dim; ++d) {
      const double range = hi[d] - lo[d];
      out.data_[i * dim + d] = range > 0.0 ? (p[d] - lo[d]) / range : 0.0;
    }
  }
}

std::uint64_t GridIndex::pack_key(
    std::span<const std::int64_t> coords) noexcept {
  // Zigzag-encode each signed cell coordinate (negatives interleave with
  // positives instead of wrapping to huge unsigned values), then fold into
  // one 64-bit key with a Fibonacci-style combiner. Collisions are harmless:
  // find_cell() always confirms the full coordinate tuple.
  std::uint64_t key = 0x9e3779b97f4a7c15ull;
  for (const std::int64_t c : coords) {
    const auto zigzag = (static_cast<std::uint64_t>(c) << 1) ^
                        static_cast<std::uint64_t>(c >> 63);
    key ^= zigzag + 0x9e3779b97f4a7c15ull + (key << 6) + (key >> 2);
  }
  // splitmix64 finalizer: spreads low-entropy cell coordinates across the
  // table so linear probing stays short.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return key;
}

std::uint32_t GridIndex::find_cell(
    std::span<const std::int64_t> coords) const noexcept {
  const std::uint64_t key = pack_key(coords);
  for (std::size_t idx = key & mask_;; idx = (idx + 1) & mask_) {
    const std::uint32_t cell = slots_[idx];
    if (cell == kNoCell) return kNoCell;
    if (cell_key_[cell] == key &&
        std::equal(coords.begin(), coords.end(),
                   cell_coords_.data() + cell * dim_)) {
      return cell;
    }
  }
}

void GridIndex::build(const PointSet& points, double cell) {
  dim_ = points.dim();
  MOSAIC_ASSERT(dim_ <= kMaxDim);
  cell_ = std::max(cell, 1e-12);
  const std::size_t n = points.size();

  // Power-of-two table at <= 50% load (each point adds at most one cell).
  std::size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  slots_.assign(capacity, kNoCell);
  mask_ = capacity - 1;
  cell_key_.clear();
  cell_coords_.clear();
  point_cell_.resize(n);
  // cell_start_ doubles as the per-cell counter during the first pass.
  cell_start_.assign(1, 0);

  std::int64_t coords[kMaxDim];
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = points.point(i);
    for (std::size_t d = 0; d < dim_; ++d) coords[d] = cell_coord(p[d]);
    const std::uint64_t key = pack_key({coords, dim_});
    std::uint32_t cell_id = kNoCell;
    for (std::size_t idx = key & mask_;; idx = (idx + 1) & mask_) {
      const std::uint32_t existing = slots_[idx];
      if (existing == kNoCell) {
        cell_id = static_cast<std::uint32_t>(cell_key_.size());
        slots_[idx] = cell_id;
        cell_key_.push_back(key);
        cell_coords_.insert(cell_coords_.end(), coords, coords + dim_);
        cell_start_.push_back(0);
        break;
      }
      if (cell_key_[existing] == key &&
          std::equal(coords, coords + dim_,
                     cell_coords_.data() + existing * dim_)) {
        cell_id = existing;
        break;
      }
    }
    point_cell_[i] = cell_id;
    ++cell_start_[cell_id + 1];
  }

  // Counts -> CSR offsets; fill in ascending point order so each cell's list
  // preserves insertion order (the iteration-order contract of
  // for_cells_around()).
  const std::size_t cells = cell_key_.size();
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  point_coords_.resize(n * dim_);
  // cell_start_[c] serves as cell c's write cursor during the fill; the
  // shift below restores it to the CSR begin-offset array.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = cell_start_[point_cell_[i]]++;
    const auto p = points.point(i);
    std::copy(p.begin(), p.end(), point_coords_.data() + slot * dim_);
  }
  for (std::size_t c = cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

namespace {

/// Shifts every point to its density mode, writing the converged positions
/// to workspace.converged and counting iterations into `out`.
///
/// The neighbour loop reads each probed cell's coordinates contiguously and
/// does not branch on the kernel support: a candidate outside it adds a
/// selected +0.0 (`in ? x : 0.0`, never `mask * x`, because 0 * inf is NaN)
/// to the coordinate and weight sums. Those sums start at +0.0 and so can
/// never become -0.0, which makes adding +0.0 exact: the sums are
/// bit-identical to skipping the candidate, in the same cell-probe order.
/// kDim == 0 takes the dimension from `points`; kDim == 2, the periodicity
/// detector's (duration, volume) embedding with the flat kernel, lets the
/// compiler unroll the coordinate loops and keep the sums in registers
/// (~1.9x faster per neighbour visit than the generic instance).
template <std::size_t kDim, Kernel kKernel>
void shift_to_modes(const PointSet& points, const MeanShiftConfig& config,
                    double support, MeanShiftWorkspace& workspace,
                    MeanShiftResult& out) {
  // Iterations-to-converge distribution: the knob the bandwidth ablation
  // turns (a too-small bandwidth shows up as points hitting max_iterations).
  static constexpr double kIterationEdges[] = {1, 2, 4, 8, 16, 32, 64, 128,
                                               256};
  static obs::Histogram& iterations_hist = obs::Registry::global().histogram(
      obs::names::kMeanShiftIterations, kIterationEdges,
      "Mean-Shift iterations until a point converged");

  const std::size_t dim = kDim != 0 ? kDim : points.dim();
  const std::size_t n = points.size();
  const double h = config.bandwidth;
  const double r2 = support * support;
  const GridIndex& index = workspace.grid;
  // current/next swap roles each iteration instead of copying.
  double buffers[2][GridIndex::kMaxDim];
  workspace.converged.resize(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    double* current = buffers[0];
    double* next = buffers[1];
    const auto seed = points.point(i);
    std::copy(seed.begin(), seed.end(), current);
    std::size_t iterations_used = config.max_iterations;
    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
      std::fill(next, next + dim, 0.0);
      double weight_sum = 0.0;
      index.for_cells_around(
          {current, dim}, [&](std::span<const double> coords) {
            // The cell's run accumulates in locals, which stay in registers
            // where `next` and `weight_sum` would round-trip through memory.
            double center[GridIndex::kMaxDim];
            double sum[GridIndex::kMaxDim];
            for (std::size_t d = 0; d < dim; ++d) {
              center[d] = current[d];
              sum[d] = next[d];
            }
            double weights = weight_sum;
            for (const double* q = coords.data();
                 q != coords.data() + coords.size(); q += dim) {
              double d2 = 0.0;
              for (std::size_t d = 0; d < dim; ++d) {
                const double delta = q[d] - center[d];
                d2 += delta * delta;
              }
              const bool in = d2 <= r2;
              double w = 1.0;
              if constexpr (kKernel == Kernel::kGaussian) {
                w = in ? std::exp(-d2 / (2.0 * h * h)) : 0.0;
              }
              for (std::size_t d = 0; d < dim; ++d) {
                sum[d] += in ? w * q[d] : 0.0;
              }
              weights += in ? w : 0.0;
            }
            for (std::size_t d = 0; d < dim; ++d) next[d] = sum[d];
            weight_sum = weights;
          });
      if (weight_sum <= 0.0) {  // isolated point: already a mode
        iterations_used = iter + 1;
        break;
      }
      double shift2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        next[d] /= weight_sum;
        const double delta = next[d] - current[d];
        shift2 += delta * delta;
      }
      std::swap(current, next);
      if (shift2 < config.convergence_tol * config.convergence_tol) {
        iterations_used = iter + 1;
        break;
      }
    }
    iterations_hist.observe(static_cast<double>(iterations_used));
    out.total_iterations += iterations_used;
    std::copy(current, current + dim, workspace.converged.data() + i * dim);
  }
}

}  // namespace

MeanShiftResult mean_shift(const PointSet& points,
                           const MeanShiftConfig& config) {
  MeanShiftWorkspace workspace;
  MeanShiftResult result;
  mean_shift(points, config, workspace, result);
  return result;
}

void mean_shift(const PointSet& points, const MeanShiftConfig& config,
                MeanShiftWorkspace& workspace, MeanShiftResult& out) {
  out.labels.clear();
  out.modes.clear();
  out.cluster_sizes.clear();
  out.total_iterations = 0;
  const std::size_t n = points.size();
  if (n == 0) return;
  MOSAIC_ASSERT(config.bandwidth > 0.0);

  const std::size_t dim = points.dim();
  const double h = config.bandwidth;
  // Gaussian support truncated at 3h; the grid cell must cover the largest
  // query radius used.
  const bool gaussian = config.kernel == Kernel::kGaussian;
  const double support = gaussian ? 3.0 * h : h;
  workspace.grid.build(points, support);

  static obs::Counter& points_counter = obs::Registry::global().counter(
      obs::names::kMeanShiftPoints, "points shifted by Mean-Shift");
  points_counter.add(n);

  if (gaussian) {
    shift_to_modes<0, Kernel::kGaussian>(points, config, support, workspace,
                                         out);
  } else if (dim == 2) {
    shift_to_modes<2, Kernel::kFlat>(points, config, support, workspace, out);
  } else {
    shift_to_modes<0, Kernel::kFlat>(points, config, support, workspace, out);
  }

  const double merge_radius =
      config.mode_merge_radius > 0.0 ? config.mode_merge_radius : h / 2.0;

  // Merge converged modes within merge_radius into clusters (modes is a flat
  // m*dim buffer; m is small in practice).
  const double merge2 = merge_radius * merge_radius;
  workspace.raw_label.resize(n);
  workspace.modes.clear();
  const auto converged_point = [&](std::size_t i) {
    return std::span<const double>{workspace.converged.data() + i * dim, dim};
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mode_count = workspace.modes.size() / dim;
    std::size_t assigned = mode_count;
    for (std::size_t m = 0; m < mode_count; ++m) {
      const std::span<const double> mode{workspace.modes.data() + m * dim,
                                         dim};
      if (squared_distance(converged_point(i), mode) <= merge2) {
        assigned = m;
        break;
      }
    }
    if (assigned == mode_count) {
      const auto p = converged_point(i);
      workspace.modes.insert(workspace.modes.end(), p.begin(), p.end());
    }
    workspace.raw_label[i] = assigned;
  }

  // Renumber clusters by decreasing size (stable: ties keep first-seen order).
  const std::size_t mode_count = workspace.modes.size() / dim;
  workspace.sizes.assign(mode_count, 0);
  for (const std::size_t label : workspace.raw_label) {
    ++workspace.sizes[label];
  }
  workspace.order.resize(mode_count);
  std::iota(workspace.order.begin(), workspace.order.end(), 0);
  std::stable_sort(workspace.order.begin(), workspace.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return workspace.sizes[a] > workspace.sizes[b];
                   });
  workspace.rank.resize(mode_count);
  for (std::size_t r = 0; r < mode_count; ++r) {
    workspace.rank[workspace.order[r]] = r;
  }

  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.labels[i] = workspace.rank[workspace.raw_label[i]];
  }
  out.modes.resize(mode_count);
  out.cluster_sizes.resize(mode_count);
  for (std::size_t m = 0; m < mode_count; ++m) {
    out.modes[workspace.rank[m]].assign(
        workspace.modes.data() + m * dim,
        workspace.modes.data() + (m + 1) * dim);
    out.cluster_sizes[workspace.rank[m]] = workspace.sizes[m];
  }
}

}  // namespace mosaic::cluster
