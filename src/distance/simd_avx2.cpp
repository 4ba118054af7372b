/// \file simd_avx2.cpp
/// \brief AVX2+FMA implementations of the hot kernel families, compiled with
/// -mavx2 -mfma for this translation unit only (the rest of the library
/// stays at the baseline ISA; ResolveDispatch gates execution on a runtime
/// cpuid probe). With UNCERTTS_DISABLE_AVX2=ON the file degrades to a stub
/// that aliases the scalar table, so scalar-only builds need no intrinsics
/// headers at all.
///
/// Numeric policy (documented in simd.hpp): the Euclidean and PROUD kernels
/// split per-pair sums across lanes and contract into FMAs — pinned
/// tolerance vs the scalar reference; the DUST kernels evaluate dust(Δ)²
/// elementwise in lanes with exactly DustLut::Eval's operations and add
/// each pair's values in the scalar's ascending-timestamp order — the
/// single-lut kernel with one candidate row per lane — bitwise.

#include "distance/simd.hpp"

#if defined(UNCERTTS_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace uts::distance {

namespace {

/// Fixed-order horizontal sum: (lane0 + lane2) + (lane1 + lane3). The order
/// is arbitrary but constant, so SIMD results are a pure function of the
/// inputs (thread count and chunking can never change them).
inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline __m256d Abs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

// --- Squared Euclidean -------------------------------------------------------

/// One row's squared distance: 4 independent accumulator chains over 16
/// elements per step, contracted into FMAs.
inline double SquaredRowAvx2(const double* q, const double* row,
                             std::size_t n) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
    a0 = _mm256_fmadd_pd(d0, d0, a0);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t + 4), _mm256_loadu_pd(row + t + 4));
    a1 = _mm256_fmadd_pd(d1, d1, a1);
    const __m256d d2 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t + 8), _mm256_loadu_pd(row + t + 8));
    a2 = _mm256_fmadd_pd(d2, d2, a2);
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(q + t + 12),
                                     _mm256_loadu_pd(row + t + 12));
    a3 = _mm256_fmadd_pd(d3, d3, a3);
  }
  for (; t + 4 <= n; t += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
    a0 = _mm256_fmadd_pd(d, d, a0);
  }
  double sum = HSum(_mm256_add_pd(_mm256_add_pd(a0, a1),
                                  _mm256_add_pd(a2, a3)));
  for (; t < n; ++t) {
    const double d = q[t] - row[t];
    sum += d * d;
  }
  return sum;
}

void SquaredEuclideanRangeAvx2(std::span<const double> query,
                               const ts::RowBlock& block,
                               std::size_t row_begin, std::size_t row_end,
                               std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    out[r - row_begin] = SquaredRowAvx2(q, base + r * stride, n);
  }
}

void SquaredEuclideanMultiQueryAvx2(const ts::RowBlock& queries,
                                    std::size_t query_begin,
                                    std::size_t query_end,
                                    const ts::RowBlock& candidates,
                                    std::size_t row_begin,
                                    std::size_t row_end,
                                    std::span<double> out,
                                    std::size_t out_stride) {
  assert(query_begin <= query_end && query_end <= queries.rows());
  assert(row_begin <= row_end && row_end <= candidates.rows());
  assert(queries.stride() == candidates.stride());
  const std::size_t rows = row_end - row_begin;
  assert(out_stride >= rows);
  assert(query_begin == query_end ||
         out.size() >= (query_end - query_begin - 1) * out_stride + rows);
  (void)rows;
  const std::size_t stride = candidates.stride();
  const double* qbase = queries.data();
  const double* base = candidates.data();

  // Same cache-blocked tiling as the scalar kernel: candidate tiles outer,
  // query blocks inner, each tile streamed from memory once per tile pass.
  const std::size_t tile_rows = CandidateTileRows(stride);
  for (std::size_t tile = row_begin; tile < row_end; tile += tile_rows) {
    const std::size_t tile_end = std::min(tile + tile_rows, row_end);
    std::size_t q = query_begin;
    for (; q + kQueryBlock <= query_end; q += kQueryBlock) {
      const double* q0 = qbase + q * stride;
      const double* q1 = q0 + stride;
      const double* q2 = q1 + stride;
      const double* q3 = q2 + stride;
      double* o0 = out.data() + (q - query_begin) * out_stride;
      double* o1 = o0 + out_stride;
      double* o2 = o1 + out_stride;
      double* o3 = o2 + out_stride;
      for (std::size_t r = tile; r < tile_end; ++r) {
        const double* row = base + r * stride;
        // One shared candidate load feeds four FMA chains (one per query).
        __m256d s0 = _mm256_setzero_pd();
        __m256d s1 = _mm256_setzero_pd();
        __m256d s2 = _mm256_setzero_pd();
        __m256d s3 = _mm256_setzero_pd();
        std::size_t t = 0;
        for (; t + 4 <= stride; t += 4) {
          const __m256d v = _mm256_loadu_pd(row + t);
          const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(q0 + t), v);
          s0 = _mm256_fmadd_pd(d0, d0, s0);
          const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(q1 + t), v);
          s1 = _mm256_fmadd_pd(d1, d1, s1);
          const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(q2 + t), v);
          s2 = _mm256_fmadd_pd(d2, d2, s2);
          const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(q3 + t), v);
          s3 = _mm256_fmadd_pd(d3, d3, s3);
        }
        double r0 = HSum(s0), r1 = HSum(s1), r2 = HSum(s2), r3 = HSum(s3);
        for (; t < stride; ++t) {
          const double v = row[t];
          const double d0 = q0[t] - v;
          r0 += d0 * d0;
          const double d1 = q1[t] - v;
          r1 += d1 * d1;
          const double d2 = q2[t] - v;
          r2 += d2 * d2;
          const double d3 = q3[t] - v;
          r3 += d3 * d3;
        }
        o0[r - row_begin] = r0;
        o1[r - row_begin] = r1;
        o2[r - row_begin] = r2;
        o3[r - row_begin] = r3;
      }
    }
    for (; q < query_end; ++q) {
      SquaredEuclideanRangeAvx2(
          queries.row(q), candidates, tile, tile_end,
          out.subspan((q - query_begin) * out_stride + (tile - row_begin),
                      tile_end - tile));
    }
  }
}

void SquaredEuclideanEarlyAbandonRangeAvx2(std::span<const double> query,
                                           const ts::RowBlock& block,
                                           double threshold_sq,
                                           std::size_t row_begin,
                                           std::size_t row_end,
                                           std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = base + r * stride;
    // The running sum is checked once per kAbandonTile elements: partial
    // sums of squares are nondecreasing, so a per-tile check abandons
    // exactly the candidates a per-element check would (only the reported
    // overshoot value differs) without serializing the vector lanes.
    double total = 0.0;
    std::size_t t = 0;
    while (t < n) {
      const std::size_t chunk_end = std::min(t + kAbandonTile, n);
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      for (; t + 8 <= chunk_end; t += 8) {
        const __m256d d0 =
            _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
        a0 = _mm256_fmadd_pd(d0, d0, a0);
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(q + t + 4),
                                         _mm256_loadu_pd(row + t + 4));
        a1 = _mm256_fmadd_pd(d1, d1, a1);
      }
      double partial = HSum(_mm256_add_pd(a0, a1));
      for (; t < chunk_end; ++t) {
        const double d = q[t] - row[t];
        partial += d * d;
      }
      total += partial;
      if (total > threshold_sq) break;
    }
    out[r - row_begin] = total;
  }
}

// --- DUST (bitwise) ----------------------------------------------------------

/// Elements per evaluation chunk of the one-row DUST paths (classed runs,
/// lookup remainder rows): lane results are staged into a stack buffer of
/// this size, then accumulated in scalar ascending-timestamp order.
constexpr std::size_t kDustChunk = 256;

/// dust(Δ)² of four closed-form points, lane-exact with DustLut::Eval: |Δ|
/// via sign mask, then two IEEE multiplies — elementwise operations round
/// identically in SIMD and scalar.
class ClosedFormSquares {
 public:
  explicit ClosedFormSquares(const DustLut& lut)
      : vscale_(_mm256_set1_pd(lut.scale)) {}

  __m256d operator()(__m256d q, __m256d row) const {
    const __m256d d = _mm256_mul_pd(Abs(_mm256_sub_pd(q, row)), vscale_);
    return _mm256_mul_pd(d, d);
  }

 private:
  __m256d vscale_;
};

/// dust(Δ)² of four table-lookup points. Every lane operation mirrors
/// DustLut::Eval exactly: |Δ|, the clamp at delta_max, pos = Δ/step (IEEE
/// division), idx = floor(pos) (== the scalar's truncation for the
/// non-negative pos), frac = pos − idx, two gathered cells and the lerp
/// v0·(1−frac) + v1·frac with plain mul/add (no FMA — contraction would
/// change the rounding) — so each lane result is bitwise the scalar Eval.
class LutSquares {
 public:
  explicit LutSquares(const DustLut& lut)
      : values_(lut.values),
        vstep_(_mm256_set1_pd(lut.step)),
        vmax_(_mm256_set1_pd(lut.delta_max)),
        vlast_(_mm256_set1_pd(lut.values[lut.size - 1])),
        vlast_idx_(_mm256_set1_pd(static_cast<double>(lut.size - 1))),
        imax_(_mm_set1_epi32(static_cast<int>(lut.size - 1))) {}

  __m256d operator()(__m256d q, __m256d row) const {
    const __m256d delta = Abs(_mm256_sub_pd(q, row));
    const __m256d clamp = _mm256_cmp_pd(delta, vmax_, _CMP_GE_OQ);
    const __m256d pos = _mm256_div_pd(delta, vstep_);
    const __m256d idxd = _mm256_floor_pd(pos);
    const __m256d frac = _mm256_sub_pd(pos, idxd);
    // idx + 1 >= size ⟺ idx >= size − 1 (the scalar's second clamp).
    const __m256d last = _mm256_cmp_pd(idxd, vlast_idx_, _CMP_GE_OQ);
    const __m256d clamped = _mm256_or_pd(clamp, last);
    // Gather indices for clamped lanes are irrelevant (blended away) but
    // must stay in bounds.
    __m128i idx = _mm256_cvttpd_epi32(idxd);
    idx = _mm_min_epi32(_mm_max_epi32(idx, _mm_setzero_si128()), imax_);
    const __m128i idx1 =
        _mm_min_epi32(_mm_add_epi32(idx, _mm_set1_epi32(1)), imax_);
    // Masked gather with an all-ones mask and a zeroed source: same loads as
    // the plain gather, but avoids _mm256_undefined_pd inside the intrinsic
    // (GCC flags it -Wmaybe-uninitialized).
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d v0 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), values_,
                                                idx, all, 8);
    const __m256d v1 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), values_,
                                                idx1, all, 8);
    const __m256d lerp = _mm256_add_pd(
        _mm256_mul_pd(v0, _mm256_sub_pd(_mm256_set1_pd(1.0), frac)),
        _mm256_mul_pd(v1, frac));
    const __m256d cell = _mm256_blendv_pd(lerp, vlast_, clamped);
    return _mm256_mul_pd(cell, cell);
  }

 private:
  const double* values_;
  __m256d vstep_, vmax_, vlast_, vlast_idx_;
  __m128i imax_;
};

/// One row, one chain: adds dust(Δ)² of `count` points to `sum` in
/// ascending-timestamp order. Chunks of kDustChunk points are evaluated four
/// lanes at a time (DustLut::Eval for the `% 4` tail) into a staging
/// buffer, which is then summed serially.
template <typename Squares>
inline double AddStagedSquares(const double* q, const double* row,
                               std::size_t count, const DustLut& lut,
                               const Squares& squares, double sum) {
  double d2[kDustChunk];
  for (std::size_t c = 0; c < count; c += kDustChunk) {
    const std::size_t m = std::min(kDustChunk, count - c);
    std::size_t t = 0;
    for (; t + 4 <= m; t += 4) {
      _mm256_storeu_pd(d2 + t, squares(_mm256_loadu_pd(q + c + t),
                                       _mm256_loadu_pd(row + c + t)));
    }
    for (; t < m; ++t) {
      const double d = lut.Eval(q[c + t] - row[c + t]);
      d2[t] = d * d;
    }
    for (std::size_t i = 0; i < m; ++i) sum += d2[i];
  }
  return sum;
}

/// In-place 4×4 transpose: on entry a..d hold four timestamps of four rows,
/// on exit a holds timestamp 0 of every row ({a0, b0, c0, d0}), b timestamp
/// 1, and so on.
inline void Transpose4x4(__m256d& a, __m256d& b, __m256d& c, __m256d& d) {
  const __m256d ab_lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
  const __m256d ab_hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
  const __m256d cd_lo = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
  const __m256d cd_hi = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
  a = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x20);
  b = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x20);
  c = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x31);
  d = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x31);
}

/// Candidates in lanes: DUST of the four consecutive rows starting at `row`
/// into out[0..4). dust(Δ)² is evaluated four timestamps of one row per
/// vector, the 4×4 tile is transposed, and lane i then adds its row's
/// values in ascending-timestamp order — each lane runs exactly the scalar
/// reference's chain 0.0 + d₀² + d₁² + … for its own row, so the result is
/// bitwise DustBatchRange's, and the four independent chains hide the add
/// latency a single in-order chain is bound by.
template <typename Squares>
inline void DustFourRows(const double* q, const double* row,
                         std::size_t stride, std::size_t n,
                         const DustLut& lut, const Squares& squares,
                         double* out) {
  const double* const rows[4] = {row, row + stride, row + 2 * stride,
                                 row + 3 * stride};
  __m256d acc = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d vq = _mm256_loadu_pd(q + t);
    __m256d s0 = squares(vq, _mm256_loadu_pd(rows[0] + t));
    __m256d s1 = squares(vq, _mm256_loadu_pd(rows[1] + t));
    __m256d s2 = squares(vq, _mm256_loadu_pd(rows[2] + t));
    __m256d s3 = squares(vq, _mm256_loadu_pd(rows[3] + t));
    Transpose4x4(s0, s1, s2, s3);
    acc = _mm256_add_pd(acc, s0);
    acc = _mm256_add_pd(acc, s1);
    acc = _mm256_add_pd(acc, s2);
    acc = _mm256_add_pd(acc, s3);
  }
  alignas(32) double sums[4];
  _mm256_store_pd(sums, acc);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (std::size_t u = t; u < n; ++u) {
      const double d = lut.Eval(q[u] - rows[lane][u]);
      sums[lane] += d * d;
    }
  }
  // IEEE sqrt is correctly rounded in both lanes and scalar.
  _mm256_storeu_pd(out, _mm256_sqrt_pd(_mm256_load_pd(sums)));
}

void DustRangeAvx2(std::span<const double> query, const ts::RowBlock& block,
                   const DustLut& lut, std::size_t row_begin,
                   std::size_t row_end, std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  std::size_t r = row_begin;
  for (; r + 4 <= row_end; r += 4) {
    const double* rows = base + r * stride;
    double* dst = out.data() + (r - row_begin);
    if (lut.values == nullptr) {
      DustFourRows(q, rows, stride, n, lut, ClosedFormSquares(lut), dst);
    } else {
      DustFourRows(q, rows, stride, n, lut, LutSquares(lut), dst);
    }
  }
  // Fewer than four rows remain (the index cascade scores one at a time),
  // so there is nothing to put in the other lanes: the closed form runs the
  // scalar kernel, and the lookup keeps its gathers in lanes along the row,
  // staged and then summed in order — still ahead of scalar lookups.
  if (lut.values == nullptr) {
    DustBatchRange(query, block, lut, r, row_end, out.subspan(r - row_begin));
    return;
  }
  const LutSquares squares(lut);
  for (; r < row_end; ++r) {
    out[r - row_begin] = std::sqrt(
        AddStagedSquares(q, base + r * stride, n, lut, squares, 0.0));
  }
}

void DustClassedRangeAvx2(std::span<const double> query,
                          const ts::RowBlock& block,
                          std::span<const DustLut* const> query_luts,
                          std::span<const std::uint16_t> class_ids,
                          std::size_t row_begin, std::size_t row_end,
                          std::span<double> out) {
  assert(query.size() == block.stride());
  assert(query_luts.size() == block.stride());
  assert(class_ids.size() == block.rows() * block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const double* q = query.data();
  const DustLut* const* luts = query_luts.data();
  // Minimum run length worth the lane evaluators' setup; shorter runs (and
  // per-point-varying error models in general) evaluate scalar — bitwise
  // either way, since the accumulation order never changes.
  constexpr std::size_t kMinVectorRun = 8;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = block.data() + r * n;
    const std::uint16_t* ids = class_ids.data() + r * n;
    double sum = 0.0;
    std::size_t t = 0;
    while (t < n) {
      // Maximal run sharing one (query class row, candidate class) pair —
      // the whole row, for the paper's per-series-constant error models.
      std::size_t run_end = t + 1;
      while (run_end < n && luts[run_end] == luts[t] &&
             ids[run_end] == ids[t]) {
        ++run_end;
      }
      const DustLut& lut = luts[t][ids[t]];
      if (run_end - t >= kMinVectorRun) {
        sum = lut.values == nullptr
                  ? AddStagedSquares(q + t, row + t, run_end - t, lut,
                                     ClosedFormSquares(lut), sum)
                  : AddStagedSquares(q + t, row + t, run_end - t, lut,
                                     LutSquares(lut), sum);
      } else {
        for (std::size_t c = t; c < run_end; ++c) {
          const double d = lut.Eval(q[c] - row[c]);
          sum += d * d;
        }
      }
      t = run_end;
    }
    out[r - row_begin] = std::sqrt(sum);
  }
}

// --- PROUD -------------------------------------------------------------------

void ProudMomentRangeAvx2(std::span<const double> query,
                          const ts::RowBlock& block, double v,
                          std::size_t row_begin, std::size_t row_end,
                          std::span<double> mean_out,
                          std::span<double> var_out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(mean_out.size() == row_end - row_begin);
  assert(var_out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d v4 = _mm256_set1_pd(4.0 * v);
  const __m256d v2sq = _mm256_set1_pd(2.0 * v * v);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = base + r * stride;
    __m256d mean0 = _mm256_setzero_pd();
    __m256d mean1 = _mm256_setzero_pd();
    __m256d var0 = _mm256_setzero_pd();
    __m256d var1 = _mm256_setzero_pd();
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
      const __m256d mu_a =
          _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
      const __m256d mu2_a = _mm256_mul_pd(mu_a, mu_a);
      mean0 = _mm256_add_pd(mean0, _mm256_add_pd(mu2_a, vv));
      var0 = _mm256_add_pd(var0, _mm256_fmadd_pd(mu2_a, v4, v2sq));
      const __m256d mu_b = _mm256_sub_pd(_mm256_loadu_pd(q + t + 4),
                                         _mm256_loadu_pd(row + t + 4));
      const __m256d mu2_b = _mm256_mul_pd(mu_b, mu_b);
      mean1 = _mm256_add_pd(mean1, _mm256_add_pd(mu2_b, vv));
      var1 = _mm256_add_pd(var1, _mm256_fmadd_pd(mu2_b, v4, v2sq));
    }
    for (; t + 4 <= n; t += 4) {
      const __m256d mu =
          _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
      const __m256d mu2 = _mm256_mul_pd(mu, mu);
      mean0 = _mm256_add_pd(mean0, _mm256_add_pd(mu2, vv));
      var0 = _mm256_add_pd(var0, _mm256_fmadd_pd(mu2, v4, v2sq));
    }
    double mean_sq = HSum(_mm256_add_pd(mean0, mean1));
    double var_sq = HSum(_mm256_add_pd(var0, var1));
    for (; t < n; ++t) {
      const double mu = q[t] - row[t];
      const double mu2 = mu * mu;
      mean_sq += mu2 + v;
      var_sq += 2.0 * v * v + 4.0 * mu2 * v;
    }
    mean_out[r - row_begin] = mean_sq;
    var_out[r - row_begin] = var_sq;
  }
}

void ProudGeneralMomentRangeAvx2(
    std::span<const double> query_obs, std::span<const double> query_m2,
    std::span<const double> query_m3, std::span<const double> query_m4,
    const ts::RowBlock& block, const ts::RowBlock& m2_block,
    const ts::RowBlock& m3_block, const ts::RowBlock& m4_block,
    std::size_t row_begin, std::size_t row_end, std::span<double> mean_out,
    std::span<double> var_out) {
  const std::size_t n = query_obs.size();
  assert(n == block.stride() && n == m2_block.stride() &&
         n == m3_block.stride() && n == m4_block.stride());
  assert(query_m2.size() == n && query_m3.size() == n && query_m4.size() == n);
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(row_end <= m2_block.rows() && row_end <= m3_block.rows() &&
         row_end <= m4_block.rows());
  assert(mean_out.size() == row_end - row_begin);
  assert(var_out.size() == row_end - row_begin);
  const double* qo = query_obs.data();
  const double* q2 = query_m2.data();
  const double* q3 = query_m3.data();
  const double* q4 = query_m4.data();
  const __m256d six = _mm256_set1_pd(6.0);
  const __m256d four = _mm256_set1_pd(4.0);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* ro = block.data() + r * n;
    const double* r2 = m2_block.data() + r * n;
    const double* r3 = m3_block.data() + r * n;
    const double* r4 = m4_block.data() + r * n;
    __m256d mean_acc = _mm256_setzero_pd();
    __m256d var_acc = _mm256_setzero_pd();
    std::size_t t = 0;
    for (; t + 4 <= n; t += 4) {
      const __m256d mu =
          _mm256_sub_pd(_mm256_loadu_pd(qo + t), _mm256_loadu_pd(ro + t));
      const __m256d vq2 = _mm256_loadu_pd(q2 + t);
      const __m256d vr2 = _mm256_loadu_pd(r2 + t);
      const __m256d m2 = _mm256_add_pd(vq2, vr2);
      const __m256d m3 =
          _mm256_sub_pd(_mm256_loadu_pd(q3 + t), _mm256_loadu_pd(r3 + t));
      // m4 = m4x + 6·m2x·m2y + m4y
      const __m256d m4 = _mm256_fmadd_pd(
          six, _mm256_mul_pd(vq2, vr2),
          _mm256_add_pd(_mm256_loadu_pd(q4 + t), _mm256_loadu_pd(r4 + t)));
      const __m256d mu2 = _mm256_mul_pd(mu, mu);
      const __m256d mean_d2 = _mm256_add_pd(mu2, m2);
      // mean_d4 = mu⁴ + 6·mu²·m2 + 4·mu·m3 + m4
      const __m256d mean_d4 = _mm256_fmadd_pd(
          mu2, mu2,
          _mm256_fmadd_pd(_mm256_mul_pd(six, mu2), m2,
                          _mm256_fmadd_pd(_mm256_mul_pd(four, mu), m3, m4)));
      mean_acc = _mm256_add_pd(mean_acc, mean_d2);
      // var term = mean_d4 − mean_d2²
      var_acc = _mm256_add_pd(var_acc,
                              _mm256_fnmadd_pd(mean_d2, mean_d2, mean_d4));
    }
    double mean_sq = HSum(mean_acc);
    double var_sq = HSum(var_acc);
    for (; t < n; ++t) {
      const double mu = qo[t] - ro[t];
      const double m2 = q2[t] + r2[t];
      const double m3 = q3[t] - r3[t];
      const double m4 = q4[t] + 6.0 * q2[t] * r2[t] + r4[t];
      const double mean_d2 = mu * mu + m2;
      const double mean_d4 =
          mu * mu * mu * mu + 6.0 * mu * mu * m2 + 4.0 * mu * m3 + m4;
      mean_sq += mean_d2;
      var_sq += mean_d4 - mean_d2 * mean_d2;
    }
    mean_out[r - row_begin] = mean_sq;
    var_out[r - row_begin] = var_sq;
  }
}

}  // namespace

bool Avx2CompiledIn() { return true; }

const KernelDispatch& Avx2Dispatch() {
  static const KernelDispatch table = {
      .level = SimdLevel::kAvx2,
      .squared_euclidean_range = &SquaredEuclideanRangeAvx2,
      .squared_euclidean_multi_query = &SquaredEuclideanMultiQueryAvx2,
      .squared_euclidean_early_abandon_range =
          &SquaredEuclideanEarlyAbandonRangeAvx2,
      .dust_range = &DustRangeAvx2,
      .dust_classed_range = &DustClassedRangeAvx2,
      .proud_moment_range = &ProudMomentRangeAvx2,
      .proud_general_moment_range = &ProudGeneralMomentRangeAvx2,
  };
  return table;
}

}  // namespace uts::distance

#else  // !defined(UNCERTTS_HAVE_AVX2)

namespace uts::distance {

bool Avx2CompiledIn() { return false; }

// Scalar-only build (UNCERTTS_DISABLE_AVX2=ON or non-x86 target): the AVX2
// table aliases the scalar reference so ResolveDispatch never needs a
// special case.
const KernelDispatch& Avx2Dispatch() { return ScalarDispatch(); }

}  // namespace uts::distance

#endif  // UNCERTTS_HAVE_AVX2
