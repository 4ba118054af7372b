#include "query/uncertain_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "exec/parallel_for.hpp"
#include "index/cascade.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"

namespace uts::query {

namespace {

/// Top-k by descending score (probability), ties by ascending index — the
/// selection order of the probabilistic k-NN queries. `exclude` is skipped.
std::vector<Neighbor> SelectTopKByScore(std::span<const double> scores,
                                        std::size_t exclude, std::size_t k) {
  std::vector<Neighbor> all;
  all.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i == exclude) continue;
    all.push_back({i, scores[i]});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      if (a.distance != b.distance) {
                        return a.distance > b.distance;
                      }
                      return a.index < b.index;
                    });
  all.resize(take);
  return all;
}

}  // namespace

UncertainEngine::UncertainEngine(UncertainEngineOptions options)
    : options_(options),
      dispatch_(&distance::ResolveDispatch(options.simd)) {
  if (options_.grain == 0) options_.grain = 1;
  proud_v_ = 2.0 * options_.proud_sigma * options_.proud_sigma;
  if (options_.shared_pool != nullptr) {
    pool_ = options_.shared_pool;
    return;
  }
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads > 1) {
    owned_pool_ = std::make_unique<exec::ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

UncertainEngine::~UncertainEngine() = default;

std::size_t UncertainEngine::threads() const {
  return pool_ ? pool_->size() : 1;
}

Result<std::unique_ptr<UncertainEngine>> UncertainEngine::Create(
    const uncertain::UncertainDataset& pdf, UncertainEngineOptions options) {
  if (pdf.size() == 0) {
    return Status::InvalidArgument("uncertain engine needs a non-empty "
                                   "dataset");
  }
  const std::size_t n = pdf.size();
  const std::size_t len = pdf[0].size();
  if (len == 0) {
    return Status::InvalidArgument("uncertain engine needs non-empty series");
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (pdf[s].size() != len) {
      return Status::InvalidArgument(
          "uncertain engine needs series of uniform length");
    }
  }

  std::unique_ptr<UncertainEngine> engine(
      new UncertainEngine(std::move(options)));

  // --- Pack observations + error-class ids ---------------------------------
  // Class resolution is layered like measures::Dust's table cache: a
  // last-seen-pointer memo (consecutive points usually share one
  // distribution), then a pointer-keyed map, and only for a never-seen
  // pointer the semantic string key — so the common constant-error dataset
  // pays one Key() call total, not one per point.
  std::vector<double> values;
  values.reserve(n * len);
  std::map<std::string, std::uint16_t> class_of;
  std::map<const void*, std::uint16_t> class_of_ptr;
  const prob::ErrorDistribution* last_ptr = nullptr;
  std::uint16_t last_id = 0;
  engine->class_ids_.resize(n * len);
  for (std::size_t s = 0; s < n; ++s) {
    const uncertain::UncertainSeries& series = pdf[s];
    for (std::size_t t = 0; t < len; ++t) {
      values.push_back(series.observation(t));
      const auto& err = series.error(t);
      if (err.get() != last_ptr) {
        auto pit = class_of_ptr.find(err.get());
        if (pit == class_of_ptr.end()) {
          auto [it, inserted] = class_of.emplace(
              err->Key(),
              static_cast<std::uint16_t>(engine->class_dists_.size()));
          if (inserted) {
            if (engine->class_dists_.size() >= 0xffff) {
              return Status::NotSupported(
                  "uncertain engine supports at most 65535 distinct error "
                  "models");
            }
            engine->class_dists_.push_back(err);
          }
          pit = class_of_ptr.emplace(err.get(), it->second).first;
        }
        last_ptr = err.get();
        last_id = pit->second;
      }
      engine->class_ids_[s * len + t] = last_id;
    }
  }
  engine->num_classes_ = engine->class_dists_.size();
  auto store = ts::SoaStore::FromPacked(std::move(values), len,
                                        engine->options_.buffer_pool,
                                        engine->options_.block_rows);
  if (!store.ok()) return store.status();
  engine->store_ = std::move(store).ValueOrDie();
  if (engine->options_.index.enabled) {
    engine->synopsis_index_ = std::make_unique<index::SynopsisIndex>(
        engine->store_, engine->options_.index.synopsis_coefficients);
  }
  return engine;
}

Status UncertainEngine::BuildProudMomentColumns() {
  if (proud_moments_ready_) return Status::OK();
  // Per-class central moments scattered into per-point SoA columns — the
  // "moment prefixes" the general sweep streams instead of paying six
  // virtual CentralMoment calls per point pair.
  std::vector<double> m2_of_class, m3_of_class, m4_of_class;
  for (const auto& dist : class_dists_) {
    m2_of_class.push_back(dist->CentralMoment(2));
    m3_of_class.push_back(dist->CentralMoment(3));
    m4_of_class.push_back(dist->CentralMoment(4));
  }
  // Each column streams through FromRows one block at a time, so paged
  // engines never materialize a full n×len moment column; its blocking is a
  // pure function of (stride, block_rows), so the moment stores share the
  // observation store's block geometry.
  const std::size_t len = length();
  const auto build = [&](const std::vector<double>& of_class) {
    return ts::SoaStore::FromRows(
        size(), len,
        [&](std::size_t r, std::span<double> out) {
          const std::uint16_t* ids = class_ids_.data() + r * len;
          for (std::size_t t = 0; t < len; ++t) out[t] = of_class[ids[t]];
        },
        options_.buffer_pool, options_.block_rows);
  };
  auto m2 = build(m2_of_class);
  if (!m2.ok()) return m2.status();
  auto m3 = build(m3_of_class);
  if (!m3.ok()) return m3.status();
  auto m4 = build(m4_of_class);
  if (!m4.ok()) return m4.status();
  m2_store_ = std::move(m2).ValueOrDie();
  m3_store_ = std::move(m3).ValueOrDie();
  m4_store_ = std::move(m4).ValueOrDie();
  proud_moments_ready_ = true;
  return Status::OK();
}

// --- DUST --------------------------------------------------------------------

Status UncertainEngine::BuildDustTables(measures::Dust& shared_cache) {
  if (dust_ready_) return Status::OK();
  const std::size_t k = num_classes_;
  dust_luts_.assign(k * k, distance::DustLut{});
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      // The cache canonicalizes pair order internally (Dust::TableFor), so
      // borrowed tables are bitwise the ones the scalar measure serves.
      auto table = shared_cache.Table(class_dists_[a], class_dists_[b]);
      if (!table.ok()) return table.status();
      const distance::DustLut lut = table.ValueOrDie()->Lut();
      dust_luts_[a * k + b] = lut;
      dust_luts_[b * k + a] = lut;
    }
  }
  // Minorant of every table: turns the synopsis Euclidean bounds into DUST
  // bounds. Harmless when no index was built; invalid maps simply disable
  // the DUST cascade.
  dust_bound_ = index::DustLowerBoundMap::FromLuts(dust_luts_);
  dust_ready_ = true;
  return Status::OK();
}

Status UncertainEngine::BuildDustTables() {
  if (dust_ready_) return Status::OK();
  // Own a private scalar cache and delegate: canonicalization and table
  // construction live in measures::Dust alone, so privately built and
  // borrowed engines can never diverge.
  owned_dust_cache_ = std::make_unique<measures::Dust>(options_.dust);
  return BuildDustTables(*owned_dust_cache_);
}

Result<std::vector<double>> UncertainEngine::DustDistances(
    std::size_t query) const {
  assert(query < size());
  if (!dust_ready_) {
    return Status::InvalidArgument(
        "DUST tables not built; call BuildDustTables first");
  }
  const std::size_t n = size();
  const std::size_t len = length();
  std::vector<double> distances(n, 0.0);
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const std::span<const double> qrow = query_pin.row();
  const auto chunks = ts::PartitionRows(view, options_.grain);
  if (num_classes_ == 1) {
    const distance::DustLut& lut = PairLut(0, 0);
    exec::ParallelFor(
        pool_, chunks.size(), /*grain=*/1,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
            const ts::RowChunk& chunk = chunks[c];
            const auto pin = ts::PinOrAbort(view, chunk.block);
            dispatch_->dust_range(qrow, pin.block(), lut,
                                  chunk.begin - pin.first_row(),
                                  chunk.end - pin.first_row(),
                                  std::span<double>(distances)
                                      .subspan(chunk.begin,
                                               chunk.end - chunk.begin));
          }
        });
    return distances;
  }
  std::vector<const distance::DustLut*> qluts(len);
  for (std::size_t t = 0; t < len; ++t) {
    qluts[t] = &dust_luts_[class_id(query, t) * num_classes_];
  }
  exec::ParallelFor(
      pool_, chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          const auto pin = ts::PinOrAbort(view, chunk.block);
          const std::span<const std::uint16_t> block_ids =
              std::span<const std::uint16_t>(class_ids_)
                  .subspan(pin.first_row() * len, pin.block().rows() * len);
          dispatch_->dust_classed_range(qrow, pin.block(), qluts, block_ids,
                                        chunk.begin - pin.first_row(),
                                        chunk.end - pin.first_row(),
                                        std::span<double>(distances)
                                            .subspan(chunk.begin,
                                                     chunk.end - chunk.begin));
        }
      });
  return distances;
}

Result<double> UncertainEngine::DustDistance(std::size_t query,
                                             std::size_t candidate) const {
  assert(query < size() && candidate < size());
  if (!dust_ready_) {
    return Status::InvalidArgument(
        "DUST tables not built; call BuildDustTables first");
  }
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const auto cand_pin = ts::PinRowOrAbort(view, candidate);
  return DustDistance(query, query_pin.row(), candidate, cand_pin.row());
}

Result<double> UncertainEngine::DustDistance(
    std::size_t query, std::span<const double> query_row,
    std::size_t candidate, std::span<const double> candidate_row) const {
  assert(query < size() && candidate < size());
  assert(query_row.size() == length() && candidate_row.size() == length());
  if (!dust_ready_) {
    return Status::InvalidArgument(
        "DUST tables not built; call BuildDustTables first");
  }
  double sum = 0.0;
  for (std::size_t t = 0; t < query_row.size(); ++t) {
    const double d = PairLut(class_id(query, t), class_id(candidate, t))
                         .Eval(query_row[t] - candidate_row[t]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

// --- Euclidean ---------------------------------------------------------------

double UncertainEngine::EuclideanDistance(
    std::span<const double> query_row,
    std::span<const double> candidate_row) const {
  assert(query_row.size() == length() && candidate_row.size() == length());
  double sq = 0.0;
  dispatch_->squared_euclidean_range(
      query_row, ts::RowBlock(candidate_row.data(), candidate_row.size(), 1),
      0, 1, std::span<double>(&sq, 1));
  return std::sqrt(sq);
}

std::vector<std::size_t> UncertainEngine::RangeSearchEuclidean(
    std::size_t query, double epsilon) const {
  assert(query < size());
  std::vector<double> sq(size(), 0.0);
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const std::span<const double> qrow = query_pin.row();
  const auto chunks = ts::PartitionRows(view, options_.grain);
  exec::ParallelFor(
      pool_, chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          const auto pin = ts::PinOrAbort(view, chunk.block);
          dispatch_->squared_euclidean_range(
              qrow, pin.block(), chunk.begin - pin.first_row(),
              chunk.end - pin.first_row(),
              std::span<double>(sq).subspan(chunk.begin,
                                            chunk.end - chunk.begin));
        }
      });
  // The sqrt of the kernel value, exactly as EuclideanDistance computes it:
  // a threshold calibrated on one pair always retrieves that pair.
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < sq.size(); ++i) {
    if (i == query) continue;
    if (std::sqrt(sq[i]) <= epsilon) matches.push_back(i);
  }
  return matches;
}

namespace {

/// Work accounting of a DUST sweep that scores every eligible candidate.
void ChargeFullDustSweep(index::SearchCost* cost, std::size_t eligible) {
  if (cost == nullptr) return;
  cost->candidates_total += eligible;
  cost->candidates_touched += eligible;
}

}  // namespace

std::vector<double> UncertainEngine::DustCascadeLowerBounds(
    std::size_t query) const {
  // Stage-1 bounds: Haar-synopsis Euclidean lower bounds on the observation
  // rows, mapped through the table minorant into the DUST metric.
  std::vector<double> bounds(size(), 0.0);
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  synopsis_index_->EuclideanLowerBounds(
      synopsis_index_->Synopsize(query_pin.row()), bounds);
  for (double& b : bounds) b = dust_bound_(b);
  return bounds;
}

index::ExactScorer UncertainEngine::DustCascadeScorer(
    std::span<const double> qrow,
    const std::vector<const distance::DustLut*>& qluts) const {
  // Exact stage-2 scorer: the same per-row-deterministic dispatch kernels
  // the full sweep runs, on single-row ranges — bitwise identical values.
  // DUST has no early-abandon kernel, so `tau` is unused. `qrow` must stay
  // pinned by the caller for the scorer's lifetime; the candidate row's
  // block is pinned per call (free for resident stores).
  if (num_classes_ == 1) {
    const distance::DustLut& lut = PairLut(0, 0);
    return [this, qrow, &lut](std::size_t row, double /*tau*/) {
      const ts::StoreView view(store_);
      const auto pin = ts::PinOrAbort(view, view.block_of(row));
      const std::size_t local = row - pin.first_row();
      double value = 0.0;
      dispatch_->dust_range(qrow, pin.block(), lut, local, local + 1,
                            std::span<double>(&value, 1));
      return value;
    };
  }
  return [this, qrow, &qluts](std::size_t row, double /*tau*/) {
    const ts::StoreView view(store_);
    const auto pin = ts::PinOrAbort(view, view.block_of(row));
    const std::size_t local = row - pin.first_row();
    const std::span<const std::uint16_t> block_ids =
        std::span<const std::uint16_t>(class_ids_)
            .subspan(pin.first_row() * store_.stride(),
                     pin.block().rows() * store_.stride());
    double value = 0.0;
    dispatch_->dust_classed_range(qrow, pin.block(), qluts, block_ids, local,
                                  local + 1, std::span<double>(&value, 1));
    return value;
  };
}

Result<std::vector<Neighbor>> UncertainEngine::KNearestDust(
    std::size_t query, std::size_t k, index::SearchCost* cost) const {
  if (dust_index_enabled()) {
    const std::vector<double> bounds = DustCascadeLowerBounds(query);
    std::vector<const distance::DustLut*> qluts;
    if (num_classes_ > 1) {
      qluts.resize(length());
      for (std::size_t t = 0; t < length(); ++t) {
        qluts[t] = &dust_luts_[class_id(query, t) * num_classes_];
      }
    }
    const ts::StoreView view(store_);
    const auto query_pin = ts::PinRowOrAbort(view, query);
    return index::CascadeKNearest(
        bounds, query, k, DustCascadeScorer(query_pin.row(), qluts), cost);
  }
  auto distances = DustDistances(query);
  if (!distances.ok()) return distances.status();
  ChargeFullDustSweep(cost, size() - 1);
  return detail::SelectKNearest(distances.ValueOrDie(), query, k);
}

Result<std::vector<std::size_t>> UncertainEngine::RangeSearchDust(
    std::size_t query, double epsilon, index::SearchCost* cost) const {
  if (dust_index_enabled()) {
    const std::vector<double> bounds = DustCascadeLowerBounds(query);
    std::vector<const distance::DustLut*> qluts;
    if (num_classes_ > 1) {
      qluts.resize(length());
      for (std::size_t t = 0; t < length(); ++t) {
        qluts[t] = &dust_luts_[class_id(query, t) * num_classes_];
      }
    }
    const ts::StoreView view(store_);
    const auto query_pin = ts::PinRowOrAbort(view, query);
    return index::CascadeRangeSearch(
        bounds, query, epsilon, DustCascadeScorer(query_pin.row(), qluts),
        cost);
  }
  auto distances = DustDistances(query);
  if (!distances.ok()) return distances.status();
  ChargeFullDustSweep(cost, size() - 1);
  const std::vector<double>& d = distances.ValueOrDie();
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == query) continue;
    if (d[i] <= epsilon) matches.push_back(i);
  }
  return matches;
}

// --- PROUD -------------------------------------------------------------------

std::vector<double> UncertainEngine::ProudMatchProbabilities(
    std::size_t query, double epsilon) const {
  assert(query < size());
  const std::size_t n = size();
  std::vector<double> mean(n, 0.0), var(n, 0.0), probs(n, 0.0);
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const std::span<const double> qrow = query_pin.row();
  const auto chunks = ts::PartitionRows(view, options_.grain);
  exec::ParallelFor(
      pool_, chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          const auto pin = ts::PinOrAbort(view, chunk.block);
          dispatch_->proud_moment_range(
              qrow, pin.block(), proud_v_, chunk.begin - pin.first_row(),
              chunk.end - pin.first_row(),
              std::span<double>(mean).subspan(chunk.begin,
                                              chunk.end - chunk.begin),
              std::span<double>(var).subspan(chunk.begin,
                                             chunk.end - chunk.begin));
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            probs[i] = measures::Proud::ProbabilityFromStats(
                {mean[i], var[i]}, epsilon);
          }
        }
      });
  return probs;
}

std::vector<std::size_t> UncertainEngine::ProbabilisticRangeSearchProud(
    std::size_t query, double epsilon, double tau) const {
  assert(query < size());
  const std::size_t n = size();
  std::vector<double> mean(n, 0.0), var(n, 0.0);
  std::vector<std::uint8_t> matched(n, 0);
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const std::span<const double> qrow = query_pin.row();
  const auto chunks = ts::PartitionRows(view, options_.grain);
  exec::ParallelFor(
      pool_, chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          const auto pin = ts::PinOrAbort(view, chunk.block);
          dispatch_->proud_moment_range(
              qrow, pin.block(), proud_v_, chunk.begin - pin.first_row(),
              chunk.end - pin.first_row(),
              std::span<double>(mean).subspan(chunk.begin,
                                              chunk.end - chunk.begin),
              std::span<double>(var).subspan(chunk.begin,
                                             chunk.end - chunk.begin));
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            matched[i] = measures::Proud::DecideFromStats({mean[i], var[i]},
                                                          epsilon, tau)
                             ? 1
                             : 0;
          }
        }
      });
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == query) continue;
    if (matched[i] != 0) matches.push_back(i);
  }
  return matches;
}

std::vector<Neighbor> UncertainEngine::KNearestProud(std::size_t query,
                                                     double epsilon,
                                                     std::size_t k) const {
  return SelectTopKByScore(ProudMatchProbabilities(query, epsilon), query, k);
}

Result<std::vector<double>> UncertainEngine::ProudGeneralMatchProbabilities(
    std::size_t query, double epsilon) const {
  assert(query < size());
  if (!proud_moments_ready_) {
    return Status::InvalidArgument(
        "PROUD moment columns not built; call BuildProudMomentColumns "
        "first");
  }
  const std::size_t n = size();
  std::vector<double> mean(n, 0.0), var(n, 0.0), probs(n, 0.0);
  // The moment columns share the observation store's block geometry (same
  // stride, same block_rows), so one chunk maps to the same block index in
  // all four stores.
  assert(m2_store_.block_rows() == store_.block_rows());
  const ts::StoreView view(store_);
  const ts::StoreView m2_view(m2_store_), m3_view(m3_store_),
      m4_view(m4_store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const auto q2_pin = ts::PinRowOrAbort(m2_view, query);
  const auto q3_pin = ts::PinRowOrAbort(m3_view, query);
  const auto q4_pin = ts::PinRowOrAbort(m4_view, query);
  const auto chunks = ts::PartitionRows(view, options_.grain);
  exec::ParallelFor(
      pool_, chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          const auto pin = ts::PinOrAbort(view, chunk.block);
          const auto m2_pin = ts::PinOrAbort(m2_view, chunk.block);
          const auto m3_pin = ts::PinOrAbort(m3_view, chunk.block);
          const auto m4_pin = ts::PinOrAbort(m4_view, chunk.block);
          dispatch_->proud_general_moment_range(
              query_pin.row(), q2_pin.row(), q3_pin.row(), q4_pin.row(),
              pin.block(), m2_pin.block(), m3_pin.block(), m4_pin.block(),
              chunk.begin - pin.first_row(), chunk.end - pin.first_row(),
              std::span<double>(mean).subspan(chunk.begin,
                                              chunk.end - chunk.begin),
              std::span<double>(var).subspan(chunk.begin,
                                             chunk.end - chunk.begin));
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            probs[i] = measures::Proud::ProbabilityFromStats(
                {mean[i], var[i]}, epsilon);
          }
        }
      });
  return probs;
}

// --- MUNICH ------------------------------------------------------------------

Status UncertainEngine::AttachSamples(
    const uncertain::MultiSampleDataset& samples) {
  if (samples.size() != size()) {
    return Status::InvalidArgument(
        "sample-model dataset size does not match the pdf dataset");
  }
  const std::size_t n = size();
  const std::size_t len = length();
  std::vector<double> lo(n * len), hi(n * len);
  for (std::size_t s = 0; s < n; ++s) {
    const uncertain::MultiSampleSeries& series = samples[s];
    if (series.size() != len) {
      return Status::InvalidArgument(
          "sample-model series length does not match the pdf dataset");
    }
    for (std::size_t t = 0; t < len; ++t) {
      if (series.num_samples(t) == 0) {
        return Status::InvalidArgument("timestamp without observations");
      }
      std::tie(lo[s * len + t], hi[s * len + t]) = series.BoundingInterval(t);
    }
  }
  auto lo_store = ts::SoaStore::FromPacked(std::move(lo), len,
                                           options_.buffer_pool,
                                           options_.block_rows);
  if (!lo_store.ok()) return lo_store.status();
  auto hi_store = ts::SoaStore::FromPacked(std::move(hi), len,
                                           options_.buffer_pool,
                                           options_.block_rows);
  if (!hi_store.ok()) return hi_store.status();
  sample_lo_ = std::move(lo_store).ValueOrDie();
  sample_hi_ = std::move(hi_store).ValueOrDie();
  samples_ = &samples;
  return Status::OK();
}

std::uint64_t UncertainEngine::MunichPairSeed(std::size_t qi,
                                              std::size_t ci) const {
  // Counter-based: the stream of pair (qi, ci) depends only on the pair
  // counter qi·n + ci and the engine seed — never on evaluation order or
  // thread placement. Shared with the evaluation matchers, so engine
  // sweeps reproduce the sequential results bit-exactly.
  return prob::PairStreamSeed(options_.seed, qi, ci, size());
}

Result<double> UncertainEngine::MunichPairProbability(std::size_t qi,
                                                      std::size_t ci,
                                                      double epsilon) const {
  const uncertain::MultiSampleSeries& x = (*samples_)[qi];
  const uncertain::MultiSampleSeries& y = (*samples_)[ci];
  measures::MunichOptions options = options_.munich;
  if (options.use_bounds_filter) {
    const ts::StoreView lo_view(sample_lo_), hi_view(sample_hi_);
    const auto qlo = ts::PinRowOrAbort(lo_view, qi);
    const auto qhi = ts::PinRowOrAbort(hi_view, qi);
    const auto clo = ts::PinRowOrAbort(lo_view, ci);
    const auto chi = ts::PinRowOrAbort(hi_view, ci);
    const measures::DistanceBounds bounds =
        measures::Munich::EuclideanBoundsFromIntervals(
            qlo.row(), qhi.row(), clo.row(), chi.row());
    if (bounds.upper <= epsilon) return 1.0;
    if (bounds.lower > epsilon) return 0.0;
    // The filter did not decide; hand the estimator a filter-free matcher
    // so the bounds are not recomputed from the raw samples.
    options.use_bounds_filter = false;
  }
  return measures::Munich(options).MatchProbability(x, y, epsilon,
                                                    MunichPairSeed(qi, ci));
}

Result<std::vector<double>> UncertainEngine::MunichMatchProbabilities(
    std::size_t query, double epsilon) const {
  assert(query < size());
  if (samples_ == nullptr) {
    return Status::InvalidArgument(
        "no sample-model dataset attached (required by MUNICH)");
  }
  const std::size_t n = size();
  std::vector<double> probs(n, 0.0);
  std::vector<Status> statuses(exec::NumChunks(n, options_.grain),
                               Status::OK());
  exec::ParallelFor(pool_, n, options_.grain,
                    [&](std::size_t begin, std::size_t end) {
                      Status& status = statuses[begin / options_.grain];
                      for (std::size_t i = begin; i < end; ++i) {
                        if (i == query) continue;
                        auto p = MunichPairProbability(query, i, epsilon);
                        if (!p.ok()) {
                          status = p.status();
                          return;
                        }
                        probs[i] = p.ValueOrDie();
                      }
                    });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return probs;
}

Result<std::vector<std::size_t>> UncertainEngine::ProbabilisticRangeSearchMunich(
    std::size_t query, double epsilon, double tau) const {
  auto probs = MunichMatchProbabilities(query, epsilon);
  if (!probs.ok()) return probs.status();
  const std::vector<double>& p = probs.ValueOrDie();
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i == query) continue;
    if (p[i] >= tau) matches.push_back(i);
  }
  return matches;
}

Result<std::vector<Neighbor>> UncertainEngine::KNearestMunich(
    std::size_t query, double epsilon, std::size_t k) const {
  auto probs = MunichMatchProbabilities(query, epsilon);
  if (!probs.ok()) return probs.status();
  return SelectTopKByScore(probs.ValueOrDie(), query, k);
}

}  // namespace uts::query
