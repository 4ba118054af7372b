// Shared pieces of the benchmark program: arguments, clocks, order
// statistics, the span recorder of the traced replay, cache-level
// bandwidth probes, and the result line every run ends with.
#ifndef UTS_PERFBENCH_COMMON_HPP_
#define UTS_PERFBENCH_COMMON_HPP_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "prob/rng.hpp"
#include "ts/dataset.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< Tiny shapes: checks wiring, not speed.
  std::string work_dir;     ///< Spill files and trace output go here.
  std::string self_path;    ///< This binary, for spawning the server.
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the gate outcome and its metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

inline double MillisSince(Clock::time_point start) {
  return Millis(Clock::now() - start);
}

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted);
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
double Sum(const std::vector<double>& values);

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double SelfPeakRssMb();

/// Seeded z-normalized random walks, the shape the index targets.
uts::ts::Dataset RandomWalks(const std::string& name, std::size_t n,
                             std::size_t length, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------------

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the index of the enclosing span (-1 for a root).
struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double Millis() const { return (end_ns - start_ns) * 1e-6; }
};

/// Keeps spans in memory; Write() puts them out as JSON lines at the end of
/// the run. A disabled tracer records nothing, so the same replay code runs
/// traced and untraced for the overhead comparison.
class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// Open a span under the innermost open one; returns its index (or -1).
  std::int64_t Begin(const std::string& name, std::uint64_t request);
  void End(std::int64_t index);
  /// Record an already measured interval as a child of the open span.
  void Record(const std::string& name, std::uint64_t request,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Total duration (ms) of spans called `name`.
  double Total(const std::string& name) const;

  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> SelfTimes() const;
  void PrintSelfTimeTable(const std::string& title) const;
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: Begin in the constructor, End in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

// ---------------------------------------------------------------------------
// Cache-level bandwidth probes
// ---------------------------------------------------------------------------

/// Read bandwidth (GB/s, one thread) of each memory level, measured in this
/// binary by summing a buffer sized to sit in that level.
struct BandwidthPeaks {
  double l1 = 0, l2 = 0, l3 = 0, dram = 0;
  std::size_t l1_bytes = 0, l2_bytes = 0, l3_bytes = 0;
  /// Peak of the smallest level that holds `working_set_bytes`, and its
  /// name in `level`.
  double For(std::size_t working_set_bytes, std::string* level) const;
};
BandwidthPeaks ProbeBandwidth(bool smoke);
void PrintBandwidth(const BandwidthPeaks& peaks);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The per-layer metrics of a traced run. Every workload prints all of them;
/// a layer the workload does not exercise reads 0 (pool.hit_frac reads 1:
/// no pin missed).
struct LayerMetrics {
  double outside_service_ms = 0, decode_us = 0, encode_us = 0,
         frame_make_us = 0, resp_bytes = 0, gen_late_ms = 0;
  double service_op_ms = 0, activate_ms = 0, activate_share = 0,
         acquire_ms = 0, rebuilds = 0;
  double euclid_knn_ms = 0, dust_knn_ms = 0, proud_prq_ms = 0,
         munich_prq_ms = 0, ground_truth_ms = 0;
  double touched_frac = 0, abandoned_frac = 0;
  double scan_gbps = 0, peak_frac = 0;
  double pool_hit_frac = 1, pool_faults_per_query = 0, pool_evictions = 0,
         pool_spilled_mb = 0, pool_peak_resident_mb = 0, pool_write_amp = 0;
  double perturb_ms = 0, pack_ms = 0;
  double scaling_2t = 0;
  double overhead_frac = 0, unaccounted_frac = 0;
};
void AddLayerMetrics(RunResult& result, const LayerMetrics& m);

/// The end-to-end metrics of an untraced run (see perfbench/README.md for
/// what each means on each workload).
struct EndToEnd {
  double setup_s = 0, throughput_qps = 0, p50_ms = 0, p99_ms = 0,
         rss_peak_mb = 0, f1 = 0;
};
void AddEndToEndMetrics(RunResult& result, const EndToEnd& e);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

RunResult RunServeKnn(const Args& args);
RunResult RunOfflineMatch(const Args& args);
RunResult RunPagedSigmaSweep(const Args& args);
/// Body of the spawned server process (see serve_knn.cpp).
int ServeChild(int argc, char** argv);

}  // namespace perfbench

#endif  // UTS_PERFBENCH_COMMON_HPP_
