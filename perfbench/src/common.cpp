#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "ts/normalize.hpp"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uts::ts::Dataset RandomWalks(const std::string& name, std::size_t n,
                             std::size_t length, std::uint64_t seed) {
  uts::prob::Rng rng(seed);
  uts::ts::Dataset dataset(name);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(length);
    double level = rng.Gaussian();
    for (double& v : values) {
      level += rng.Gaussian();
      v = level;
    }
    uts::ts::TimeSeries series(std::move(values), static_cast<int>(i % 4));
    uts::ts::ZNormalizeInPlace(series);
    dataset.Add(std::move(series));
  }
  return dataset;
}

void AddLayerMetrics(RunResult& r, const LayerMetrics& m) {
  r.Add("server.outside_service_ms", m.outside_service_ms, "ms");
  r.Add("wire.decode_us", m.decode_us, "us");
  r.Add("wire.encode_us", m.encode_us, "us");
  r.Add("frame.make_us", m.frame_make_us, "us");
  r.Add("wire.resp_bytes", m.resp_bytes, "bytes");
  r.Add("gen.late_ms", m.gen_late_ms, "ms");
  r.Add("service.op_ms", m.service_op_ms, "ms");
  r.Add("context.activate_ms", m.activate_ms, "ms");
  r.Add("context.activate_share", m.activate_share, "frac");
  r.Add("context.acquire_ms", m.acquire_ms, "ms");
  r.Add("context.rebuilds", m.rebuilds, "count");
  r.Add("engine.euclid_knn_ms", m.euclid_knn_ms, "ms");
  r.Add("engine.dust_knn_ms", m.dust_knn_ms, "ms");
  r.Add("engine.proud_prq_ms", m.proud_prq_ms, "ms");
  r.Add("engine.munich_prq_ms", m.munich_prq_ms, "ms");
  r.Add("engine.ground_truth_ms", m.ground_truth_ms, "ms");
  r.Add("index.touched_frac", m.touched_frac, "frac");
  r.Add("index.abandoned_frac", m.abandoned_frac, "frac");
  r.Add("distance.scan_gbps", m.scan_gbps, "GB/s");
  r.Add("distance.peak_frac", m.peak_frac, "frac");
  r.Add("pool.hit_frac", m.pool_hit_frac, "frac");
  r.Add("pool.faults_per_query", m.pool_faults_per_query, "count");
  r.Add("pool.evictions", m.pool_evictions, "count");
  r.Add("pool.spilled_mb", m.pool_spilled_mb, "MiB");
  r.Add("pool.peak_resident_mb", m.pool_peak_resident_mb, "MiB");
  r.Add("pool.write_amp", m.pool_write_amp, "ratio");
  r.Add("bind.perturb_ms", m.perturb_ms, "ms");
  r.Add("bind.pack_ms", m.pack_ms, "ms");
  r.Add("exec.scaling_2t", m.scaling_2t, "ratio");
  r.Add("trace.overhead_frac", m.overhead_frac, "frac");
  r.Add("trace.unaccounted_frac", m.unaccounted_frac, "frac");
}

void AddEndToEndMetrics(RunResult& r, const EndToEnd& e) {
  r.Add("setup_s", e.setup_s, "s");
  r.Add("throughput_qps", e.throughput_qps, "1/s");
  r.Add("p50_ms", e.p50_ms, "ms");
  r.Add("p99_ms", e.p99_ms, "ms");
  r.Add("rss_peak_mb", e.rss_peak_mb, "MiB");
  r.Add("f1", e.f1, "frac");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::int64_t Tracer::Begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  open_.pop_back();  // ScopedSpan closes spans innermost first
}

void Tracer::Record(const std::string& name, std::uint64_t request,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.Millis());
  }
  return out;
}

double Tracer::Total(const std::string& name) const {
  return Sum(Durations(name));
}

std::map<std::string, double> Tracer::SelfTimes() const {
  // Children of one parent never overlap (the replay is sequential), so a
  // parent's covered time is the sum of its children's durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += span.Millis();
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].Millis() - child_ms[i];
  }
  return self;
}

void Tracer::PrintSelfTimeTable(const std::string& title) const {
  std::map<std::string, std::pair<std::size_t, double>> total;
  for (const Span& span : spans_) {
    auto& entry = total[span.name];
    ++entry.first;
    entry.second += span.Millis();
  }
  const auto self = SelfTimes();
  double self_sum = 0.0;
  for (const auto& [name, ms] : self) self_sum += ms;
  std::printf("# self-time table: %s (%zu spans)\n", title.c_str(),
              spans_.size());
  std::printf("# %-28s %8s %12s %12s %7s\n", "span", "count", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, entry] : total) {
    const double s = self.at(name);
    std::printf("# %-28s %8zu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                entry.first, entry.second, s,
                self_sum > 0 ? 100.0 * s / self_sum : 0.0);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"request\":" << span.request
        << ",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Bandwidth probes
// ---------------------------------------------------------------------------

namespace {

// Integer sums vectorize without reassociation concerns; the AVX2 clone
// reads 32 bytes per load like the distance kernels do.
__attribute__((target("avx2"))) std::uint64_t SumWordsAvx2(
    const std::uint64_t* data, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += data[i];
  return acc;
}

std::uint64_t SumWords(const std::uint64_t* data, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += data[i];
  return acc;
}

std::size_t CacheBytes(int name, std::size_t fallback) {
  const long value = sysconf(name);
  return value > 0 ? static_cast<std::size_t>(value) : fallback;
}

/// Best-of-reps read bandwidth over a `bytes` buffer, GB/s.
double ProbeLevel(std::size_t bytes, double budget_s) {
  const std::size_t words = std::max<std::size_t>(bytes / 8, 64);
  std::vector<std::uint64_t> buffer(words);
  std::iota(buffer.begin(), buffer.end(), std::uint64_t{1});
  const bool avx2 = __builtin_cpu_supports("avx2");
  // Enough passes per rep that each rep reads >= 32 MiB.
  const std::size_t passes =
      std::max<std::size_t>(1, (std::size_t{32} << 20) / (words * 8));
  volatile std::uint64_t sink = 0;
  double best = 0.0;
  const auto deadline_start = Clock::now();
  for (int rep = 0; rep < 50; ++rep) {
    const auto start = Clock::now();
    std::uint64_t acc = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      acc += avx2 ? SumWordsAvx2(buffer.data(), words)
                  : SumWords(buffer.data(), words);
    }
    const double s = SecondsSince(start);
    sink = sink + acc;
    best = std::max(best, static_cast<double>(passes * words * 8) / s / 1e9);
    if (rep >= 3 && SecondsSince(deadline_start) > budget_s) break;
  }
  return best;
}

}  // namespace

double BandwidthPeaks::For(std::size_t working_set_bytes,
                           std::string* level) const {
  if (working_set_bytes <= l1_bytes) {
    *level = "L1";
    return l1;
  }
  if (working_set_bytes <= l2_bytes) {
    *level = "L2";
    return l2;
  }
  if (working_set_bytes <= l3_bytes) {
    *level = "L3";
    return l3;
  }
  *level = "DRAM";
  return dram;
}

BandwidthPeaks ProbeBandwidth(bool smoke) {
  BandwidthPeaks peaks;
  peaks.l1_bytes = CacheBytes(_SC_LEVEL1_DCACHE_SIZE, 32u << 10);
  peaks.l2_bytes = CacheBytes(_SC_LEVEL2_CACHE_SIZE, 1u << 20);
  peaks.l3_bytes = CacheBytes(_SC_LEVEL3_CACHE_SIZE, 16u << 20);
  const double budget = smoke ? 0.01 : 0.15;
  // Half of each level keeps the probe resident alongside code and stack;
  // the DRAM probe is capped to stay small on shared hosts, so on a host
  // with a huge last-level cache it reads from that cache instead.
  peaks.l1 = ProbeLevel(peaks.l1_bytes / 2, budget);
  peaks.l2 = ProbeLevel(peaks.l2_bytes / 2, budget);
  peaks.l3 = ProbeLevel(std::min<std::size_t>(peaks.l3_bytes / 2, 32u << 20),
                        budget);
  peaks.dram = ProbeLevel(
      smoke ? (64u << 20)
            : std::clamp<std::size_t>(2 * peaks.l3_bytes, 64u << 20,
                                      256u << 20),
      budget);
  return peaks;
}

void PrintBandwidth(const BandwidthPeaks& p) {
  std::printf(
      "# bandwidth probes (1 thread, GB/s): L1 %.1f (%zu KiB)  L2 %.1f "
      "(%zu KiB)  L3 %.1f (%zu KiB)  DRAM %.1f\n",
      p.l1, p.l1_bytes >> 10, p.l2, p.l2_bytes >> 10, p.l3, p.l3_bytes >> 10,
      p.dram);
}

}  // namespace perfbench
