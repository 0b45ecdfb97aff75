#include "cluster/meanshift.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace mosaic::cluster {
namespace {

PointSet points_from(std::initializer_list<std::array<double, 2>> rows) {
  PointSet points(2);
  for (const auto& row : rows) points.add(row);
  return points;
}

/// The points within `radius` of `center` that the grid's cells hold,
/// sorted.
std::vector<std::vector<double>> neighbors(const GridIndex& grid,
                                           std::size_t dim,
                                           std::span<const double> center,
                                           double radius) {
  std::vector<std::vector<double>> found;
  grid.for_cells_around(center, [&](std::span<const double> coords) {
    EXPECT_EQ(coords.size() % dim, 0u);
    for (std::size_t s = 0; s < coords.size(); s += dim) {
      const std::span<const double> q = coords.subspan(s, dim);
      if (squared_distance(q, center) <= radius * radius) {
        found.emplace_back(q.begin(), q.end());
      }
    }
  });
  std::sort(found.begin(), found.end());
  return found;
}

TEST(PointSet, StoresAndRetrieves) {
  PointSet points(3);
  const std::array<double, 3> p{1.0, 2.0, 3.0};
  points.add(p);
  EXPECT_EQ(points.size(), 1u);
  EXPECT_EQ(points.dim(), 3u);
  EXPECT_DOUBLE_EQ(points.point(0)[2], 3.0);
}

TEST(SquaredDistance, Computes) {
  const std::array<double, 2> a{0.0, 0.0};
  const std::array<double, 2> b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(MinMaxScale, MapsToUnitBox) {
  const PointSet points =
      points_from({{0.0, 100.0}, {10.0, 200.0}, {5.0, 150.0}});
  const PointSet scaled = min_max_scale(points);
  EXPECT_DOUBLE_EQ(scaled.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(scaled.point(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(scaled.point(0)[1], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[1], 1.0);
}

TEST(MinMaxScale, ConstantColumnMapsToZero) {
  const PointSet points = points_from({{5.0, 1.0}, {5.0, 2.0}});
  const PointSet scaled = min_max_scale(points);
  EXPECT_DOUBLE_EQ(scaled.point(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled.point(1)[0], 0.0);
}

TEST(MeanShift, EmptyInput) {
  const PointSet points(2);
  const MeanShiftResult result = mean_shift(points);
  EXPECT_TRUE(result.labels.empty());
  EXPECT_TRUE(result.modes.empty());
}

TEST(MeanShift, SinglePointIsItsOwnCluster) {
  const PointSet points = points_from({{0.5, 0.5}});
  const MeanShiftResult result = mean_shift(points);
  ASSERT_EQ(result.labels.size(), 1u);
  EXPECT_EQ(result.labels[0], 0u);
  ASSERT_EQ(result.cluster_sizes.size(), 1u);
  EXPECT_EQ(result.cluster_sizes[0], 1u);
}

TEST(MeanShift, TwoTightClustersSeparate) {
  MeanShiftConfig config;
  config.bandwidth = 0.15;
  const PointSet points = points_from({{0.0, 0.0},
                                       {0.02, 0.01},
                                       {0.01, 0.03},
                                       {0.9, 0.9},
                                       {0.92, 0.91},
                                       {0.91, 0.88}});
  const MeanShiftResult result = mean_shift(points, config);
  ASSERT_EQ(result.labels.size(), 6u);
  EXPECT_EQ(result.modes.size(), 2u);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[0], result.labels[2]);
  EXPECT_EQ(result.labels[3], result.labels[4]);
  EXPECT_EQ(result.labels[3], result.labels[5]);
  EXPECT_NE(result.labels[0], result.labels[3]);
}

TEST(MeanShift, LargeBandwidthMergesEverything) {
  MeanShiftConfig config;
  config.bandwidth = 2.0;
  const PointSet points =
      points_from({{0.0, 0.0}, {0.5, 0.5}, {1.0, 1.0}, {0.2, 0.8}});
  const MeanShiftResult result = mean_shift(points, config);
  EXPECT_EQ(result.modes.size(), 1u);
  EXPECT_EQ(result.cluster_sizes[0], 4u);
}

TEST(MeanShift, ClustersOrderedBySizeDescending) {
  MeanShiftConfig config;
  config.bandwidth = 0.1;
  const PointSet points = points_from({{0.0, 0.0},
                                       {0.01, 0.0},
                                       {0.0, 0.01},
                                       {0.02, 0.02},
                                       {0.5, 0.5},   // singleton
                                       {0.9, 0.9},
                                       {0.91, 0.9}});
  const MeanShiftResult result = mean_shift(points, config);
  ASSERT_GE(result.cluster_sizes.size(), 3u);
  for (std::size_t i = 1; i < result.cluster_sizes.size(); ++i) {
    EXPECT_LE(result.cluster_sizes[i], result.cluster_sizes[i - 1]);
  }
  EXPECT_EQ(result.cluster_sizes[0], 4u);
}

TEST(MeanShift, ModeNearClusterCenter) {
  MeanShiftConfig config;
  config.bandwidth = 0.2;
  util::Rng rng(3);
  PointSet points(2);
  for (int i = 0; i < 60; ++i) {
    const std::array<double, 2> p{0.5 + rng.normal(0.0, 0.02),
                                  0.5 + rng.normal(0.0, 0.02)};
    points.add(p);
  }
  const MeanShiftResult result = mean_shift(points, config);
  ASSERT_EQ(result.modes.size(), 1u);
  EXPECT_NEAR(result.modes[0][0], 0.5, 0.02);
  EXPECT_NEAR(result.modes[0][1], 0.5, 0.02);
}

TEST(MeanShift, PermutationInvariantPartition) {
  MeanShiftConfig config;
  config.bandwidth = 0.15;
  util::Rng rng(11);
  std::vector<std::array<double, 2>> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({rng.normal(0.2, 0.02), rng.normal(0.2, 0.02)});
    rows.push_back({rng.normal(0.8, 0.02), rng.normal(0.8, 0.02)});
  }
  PointSet forward(2);
  for (const auto& row : rows) forward.add(row);
  PointSet backward(2);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) backward.add(*it);

  const MeanShiftResult a = mean_shift(forward, config);
  const MeanShiftResult b = mean_shift(backward, config);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  // Same partition: labels of reversed input, reversed, must be a relabeling
  // of the forward labels.
  const std::size_t n = rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool same_a = a.labels[i] == a.labels[j];
      const bool same_b = b.labels[n - 1 - i] == b.labels[n - 1 - j];
      EXPECT_EQ(same_a, same_b);
    }
  }
}

TEST(MeanShift, GaussianKernelFindsSameTwoClusters) {
  MeanShiftConfig config;
  config.bandwidth = 0.1;
  config.kernel = Kernel::kGaussian;
  const PointSet points = points_from(
      {{0.1, 0.1}, {0.12, 0.11}, {0.11, 0.09}, {0.85, 0.9}, {0.88, 0.89}});
  const MeanShiftResult result = mean_shift(points, config);
  EXPECT_EQ(result.modes.size(), 2u);
  EXPECT_EQ(result.cluster_sizes[0], 3u);
  EXPECT_EQ(result.cluster_sizes[1], 2u);
}

TEST(MeanShift, LabelsConsistentWithSizes) {
  MeanShiftConfig config;
  config.bandwidth = 0.1;
  util::Rng rng(17);
  PointSet points(2);
  for (int i = 0; i < 50; ++i) {
    const std::array<double, 2> p{rng.uniform(), rng.uniform()};
    points.add(p);
  }
  const MeanShiftResult result = mean_shift(points, config);
  std::vector<std::size_t> recount(result.modes.size(), 0);
  for (const std::size_t label : result.labels) {
    ASSERT_LT(label, result.modes.size());
    ++recount[label];
  }
  EXPECT_EQ(recount, result.cluster_sizes);
}

TEST(GridIndex, NegativeCoordinatesFindAllNeighbors) {
  // Regression: cell keys are zigzag-packed before hashing so that negative
  // cell coordinates (points left of / below the origin) hash without
  // wrap-around. A plain cast would alias distant cells and silently drop
  // neighbors. Compare every radius query against brute force on a point
  // cloud straddling the origin in both dimensions.
  util::Rng rng(42);
  PointSet points(2);
  for (int i = 0; i < 200; ++i) {
    const std::array<double, 2> p{rng.uniform(-5.0, 5.0),
                                  rng.uniform(-5.0, 5.0)};
    points.add(p);
  }
  const double radius = 0.9;
  GridIndex grid;
  grid.build(points, radius);

  const std::array<double, 2> centers[] = {
      {-4.5, -4.5}, {-0.1, 0.1}, {0.0, 0.0}, {-3.0, 2.0}, {4.5, -4.5},
  };
  for (const auto& center : centers) {
    std::vector<std::vector<double>> brute;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto p = points.point(i);
      if (squared_distance(p, center) <= radius * radius) {
        brute.emplace_back(p.begin(), p.end());
      }
    }
    std::sort(brute.begin(), brute.end());
    EXPECT_FALSE(brute.empty());
    EXPECT_EQ(neighbors(grid, 2, center, radius), brute)
        << "center (" << center[0] << ", " << center[1] << ")";
  }
}

TEST(GridIndex, RebuildReusesStorageAcrossPointSets) {
  // The index is rebuilt per trace from a worker-owned workspace; a second
  // build over different points must fully supersede the first.
  PointSet first(2);
  for (int i = 0; i < 20; ++i) {
    const std::array<double, 2> p{static_cast<double>(i), 0.0};
    first.add(p);
  }
  GridIndex grid;
  grid.build(first, 1.0);

  PointSet second(2);
  const std::array<double, 2> lone{-7.25, -3.5};
  second.add(lone);
  grid.build(second, 1.0);

  EXPECT_EQ(neighbors(grid, 2, lone, 1.0),
            (std::vector<std::vector<double>>{{lone[0], lone[1]}}));

  const std::array<double, 2> far{5.0, 5.0};
  EXPECT_TRUE(neighbors(grid, 2, far, 1.0).empty());
}

TEST(MeanShift, NegativeCoordinateClustersMatchShiftedCopy) {
  // Translating the whole point cloud must not change the partition: the
  // grid, the kernel, and mode merging are all translation-invariant, and
  // the negative quadrant must behave exactly like the positive one.
  util::Rng rng(9);
  PointSet positive(2);
  PointSet negative(2);
  for (int i = 0; i < 40; ++i) {
    // Unequal cluster sizes so the size-descending numbering is unambiguous.
    const double cx = (i % 3 == 0) ? 0.2 : 0.8;
    const std::array<double, 2> p{cx + 0.02 * rng.normal(),
                                  0.5 + 0.02 * rng.normal()};
    positive.add(p);
    const std::array<double, 2> shifted{p[0] - 10.0, p[1] - 10.0};
    negative.add(shifted);
  }
  MeanShiftConfig config;
  config.bandwidth = 0.15;
  const MeanShiftResult a = mean_shift(positive, config);
  const MeanShiftResult b = mean_shift(negative, config);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
}

// ---------------------------------------------------------------------------
// Oracle for the contiguous neighbour loop: Mean-Shift as it read while the
// shift step still walked neighbours one index at a time and branched on
// each. Its radius query visits the 3^dim ring of cells in odometer order
// (first dimension fastest) and ascending point index within a cell — the
// documented visiting order — by brute force instead of a hash, which does
// not change that order. The rest is the old arithmetic verbatim, so labels,
// modes, sizes and iteration counts must match mean_shift() bit for bit.

/// The radius query of the old walk: the points within `radius` of
/// `center`, ring cell by ring cell, ascending index within a cell.
/// `cells` holds each point's cell coordinates.
template <typename Fn>
void reference_for_neighbors(const PointSet& points,
                             const std::vector<std::int64_t>& cells,
                             double cell, std::span<const double> center,
                             double radius, Fn&& fn) {
  const std::size_t dim = points.dim();
  const double r2 = radius * radius;
  std::vector<std::int64_t> base(dim);
  std::vector<int> offset(dim, -1);
  for (std::size_t d = 0; d < dim; ++d) {
    base[d] = static_cast<std::int64_t>(std::floor(center[d] / cell));
  }
  for (;;) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      bool in_cell = true;
      for (std::size_t d = 0; d < dim; ++d) {
        in_cell = in_cell && cells[i * dim + d] == base[d] + offset[d];
      }
      if (in_cell && squared_distance(points.point(i), center) <= r2) fn(i);
    }
    std::size_t d = 0;
    while (d < dim && ++offset[d] > 1) {
      offset[d] = -1;
      ++d;
    }
    if (d == dim) break;
  }
}

MeanShiftResult reference_mean_shift(const PointSet& points,
                                     const MeanShiftConfig& config) {
  MeanShiftResult out;
  const std::size_t n = points.size();
  if (n == 0) return out;
  const std::size_t dim = points.dim();
  const double h = config.bandwidth;
  const double support =
      config.kernel == Kernel::kGaussian ? 3.0 * h : h;
  const double cell = std::max(support, 1e-12);
  const double merge_radius =
      config.mode_merge_radius > 0.0 ? config.mode_merge_radius : h / 2.0;

  std::vector<std::int64_t> cells(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      cells[i * dim + d] =
          static_cast<std::int64_t>(std::floor(points.point(i)[d] / cell));
    }
  }
  std::vector<double> converged(n * dim);
  std::vector<double> current(dim);
  std::vector<double> next(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto seed = points.point(i);
    current.assign(seed.begin(), seed.end());
    std::size_t iterations_used = config.max_iterations;
    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      double weight_sum = 0.0;
      reference_for_neighbors(points, cells, cell, current, support,
                              [&](std::size_t j) {
        const auto q = points.point(j);
        double w = 1.0;
        if (config.kernel == Kernel::kGaussian) {
          const double d2 = squared_distance(current, q);
          w = std::exp(-d2 / (2.0 * h * h));
        }
        for (std::size_t d = 0; d < dim; ++d) next[d] += w * q[d];
        weight_sum += w;
      });
      if (weight_sum <= 0.0) {
        iterations_used = iter + 1;
        break;
      }
      double shift2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        next[d] /= weight_sum;
        const double delta = next[d] - current[d];
        shift2 += delta * delta;
      }
      current.swap(next);
      if (shift2 < config.convergence_tol * config.convergence_tol) {
        iterations_used = iter + 1;
        break;
      }
    }
    out.total_iterations += iterations_used;
    std::copy(current.begin(), current.end(), converged.data() + i * dim);
  }

  const double merge2 = merge_radius * merge_radius;
  std::vector<double> modes;
  std::vector<std::size_t> raw_label(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> p{converged.data() + i * dim, dim};
    const std::size_t mode_count = modes.size() / dim;
    std::size_t assigned = mode_count;
    for (std::size_t m = 0; m < mode_count; ++m) {
      if (squared_distance(p, {modes.data() + m * dim, dim}) <= merge2) {
        assigned = m;
        break;
      }
    }
    if (assigned == mode_count) modes.insert(modes.end(), p.begin(), p.end());
    raw_label[i] = assigned;
  }
  const std::size_t mode_count = modes.size() / dim;
  std::vector<std::size_t> sizes(mode_count, 0);
  for (const std::size_t label : raw_label) ++sizes[label];
  std::vector<std::size_t> order(mode_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  std::vector<std::size_t> rank(mode_count);
  for (std::size_t r = 0; r < mode_count; ++r) rank[order[r]] = r;
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.labels[i] = rank[raw_label[i]];
  out.modes.resize(mode_count);
  out.cluster_sizes.resize(mode_count);
  for (std::size_t m = 0; m < mode_count; ++m) {
    out.modes[rank[m]].assign(modes.data() + m * dim,
                              modes.data() + (m + 1) * dim);
    out.cluster_sizes[rank[m]] = sizes[m];
  }
  return out;
}

/// Every mode coordinate as its bit pattern, so -0.0 vs 0.0 and the last
/// ulp both count.
std::vector<std::uint64_t> mode_bits(const MeanShiftResult& result) {
  std::vector<std::uint64_t> bits;
  for (const auto& mode : result.modes) {
    for (const double v : mode) bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return bits;
}

/// The point-set shapes the oracle runs over. `scale` stretches the cloud:
/// small scales put every point in one grid cell, large ones spread it over
/// many; `offset` moves it into negative coordinates.
PointSet oracle_points(util::Rng& rng, std::size_t dim, std::size_t n,
                       double scale, double offset, double bandwidth,
                       bool duplicates, bool on_radius) {
  PointSet points(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    if (duplicates && i > 0 && rng.uniform() < 0.5) {
      // Repeat an earlier point exactly, as identical checkpoint segments do.
      const auto earlier = points.point(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)));
      p.assign(earlier.begin(), earlier.end());
    } else if (on_radius && i > 0 && rng.uniform() < 0.5) {
      // A point one bandwidth from an earlier one along one axis (exactly
      // one, for the power-of-two bandwidth on the lattice below).
      const auto earlier = points.point(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)));
      p.assign(earlier.begin(), earlier.end());
      const auto axis = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1));
      p[axis] += rng.uniform() < 0.5 ? bandwidth : -bandwidth;
    } else {
      // On a 1/64 lattice when testing the radius, so that a point one
      // power-of-two bandwidth away sits at exactly that distance.
      for (double& v : p) {
        const double u = rng.uniform();
        v = offset + scale * (on_radius ? std::floor(64.0 * u) / 64.0 : u);
      }
    }
    points.add(p);
  }
  return points;
}

TEST(MeanShiftOracle, MatchesPerNeighbourWalkBitForBit) {
  MeanShiftWorkspace workspace;  // reused across cases, as a worker does
  MeanShiftResult result;
  std::size_t cases = 0;
  util::Rng rng(20240711);
  for (const Kernel kernel : {Kernel::kFlat, Kernel::kGaussian}) {
    for (const std::size_t dim : {1u, 2u, 3u}) {
      for (const double bandwidth : {0.125, 0.12, 0.3}) {
        // {scale, offset}: one cell; many cells; many cells straddling
        // the origin; all negative.
        const double shapes[][2] = {
            {0.5 * bandwidth, 0.0}, {1.0, 0.0}, {4.0, -2.0}, {1.5, -7.0}};
        for (const auto& shape : shapes) {
          for (const bool duplicates : {false, true}) {
            for (const bool on_radius : {false, true}) {
              const std::size_t n =
                  static_cast<std::size_t>(rng.uniform_int(1, 120));
              const PointSet points =
                  oracle_points(rng, dim, n, shape[0], shape[1], bandwidth,
                                duplicates, on_radius);
              MeanShiftConfig config;
              config.bandwidth = bandwidth;
              config.kernel = kernel;
              const MeanShiftResult expected =
                  reference_mean_shift(points, config);
              mean_shift(points, config, workspace, result);
              const auto where = ::testing::Message()
                                 << "kernel=" << static_cast<int>(kernel)
                                 << " dim=" << dim << " h=" << bandwidth
                                 << " scale=" << shape[0]
                                 << " offset=" << shape[1] << " n=" << n
                                 << " duplicates=" << duplicates
                                 << " on_radius=" << on_radius;
              ASSERT_EQ(result.labels, expected.labels) << where;
              ASSERT_EQ(mode_bits(result), mode_bits(expected)) << where;
              ASSERT_EQ(result.cluster_sizes, expected.cluster_sizes)
                  << where;
              ASSERT_EQ(result.total_iterations, expected.total_iterations)
                  << where;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3u * 3u * 4u * 2u * 2u);
}

TEST(MeanShiftOracle, CheckpointShapedSingleCellMatches) {
  // The shape that dominates analysis time: ~185 scaled (duration, volume)
  // segments, nearly all equal, that fall into one grid cell.
  util::Rng rng(7);
  PointSet points(2);
  for (int i = 0; i < 185; ++i) {
    const std::array<double, 2> p{0.5 + 0.001 * rng.normal(),
                                  0.5 + 0.001 * rng.normal()};
    points.add(p);
  }
  const std::array<double, 2> outlier{0.0, 1.0};
  points.add(outlier);
  const MeanShiftConfig config;  // the periodicity detector's defaults
  const MeanShiftResult expected = reference_mean_shift(points, config);
  const MeanShiftResult result = mean_shift(points, config);
  EXPECT_EQ(result.labels, expected.labels);
  EXPECT_EQ(mode_bits(result), mode_bits(expected));
  EXPECT_EQ(result.cluster_sizes, expected.cluster_sizes);
  EXPECT_EQ(result.total_iterations, expected.total_iterations);
  ASSERT_EQ(result.cluster_sizes.size(), 2u);
  EXPECT_EQ(result.cluster_sizes[0], 185u);
}

}  // namespace
}  // namespace mosaic::cluster
