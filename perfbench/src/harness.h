// Shared plumbing of the benchmark binary: run options, the result every
// workload fills in, the benchmark's own span recorder, and clocks.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Time at which main() started. Set-up clocks start here; the probe that
// opens them (HostClock::ProbeFirst), about a millisecond, is not counted.
Clock::time_point ProcessStart();

// Peak resident set size (VmHWM) of this process in MiB.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for trace files and scratch data.
  std::string out_dir = ".bench_out";
  // Reference-figure overrides, unused by run.py: pool threads of
  // train_row (0 = the workload's 2) and closed-loop clients of serve_hot.
  int threads = 0;
  int clients = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `errors` collects every failed
// correctness check; the run is correct iff it stays empty.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// The benchmark's own span recorder: spans are taken around the
// benchmark's calls into the program's public functions, kept in memory
// and written out as a Chrome trace at the end of a traced run. Disabled
// (every call a no-op) in untraced runs. Thread-safe.
class Spans {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;        // index of the enclosing span on this thread
    int64_t request = -1;   // request id shared by one request's spans
    int thread = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }
  // `name` must be a string literal (spans keep the pointer).
  int Begin(const char* name, int64_t request = -1);
  void End(int id);

  // Summed duration of every closed span called `name`, in ms.
  double TotalMs(const std::string& name) const;
  // Durations of every closed span called `name`, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;
  size_t size() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span; no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name, int64_t request = -1)
      : spans_(spans),
        id_(spans.enabled() ? spans.Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) spans_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// Host-speed-corrected clock. The host is shared: other tenants' load
// slows every thread of the benchmark by up to ~40%, in phases that come
// and go within seconds, far more than the bounds BENCHMARK.json allows.
// So the measured phases are cut into chunks, of at most a few hundred
// milliseconds where the program's API allows. At each chunk boundary the
// measuring thread times a fixed kernel of the benchmark's own (four
// independent streams of branchy random read-modify-writes over a 256 KiB
// table); its slowdown is the probe time over kReferenceProbeMs. A
// chunk's time is divided by the mean slowdown of the probes at its two
// ends (without ProbeFirst the first chunk has only its end). Probe time
// falls between chunks and is never counted. The workloads probe only
// while no thread of the program is working (serve_refresh defers a
// boundary while a refresh is in flight), so a change to the program
// moves scaled and raw time alike.
class HostClock {
 public:
  // Probe time on the reference host: the 4-vCPU Xeon VM the benchmark
  // was written on, at its fastest.
  static constexpr double kReferenceProbeMs = 0.24;

  // The first chunk starts at `start`.
  explicit HostClock(Clock::time_point start = Clock::now())
      : chunk_start_(start) {}

  // Probes the host before the first chunk, which then starts after the
  // probe, so that it is scaled by the mean of two probes like the rest.
  void ProbeFirst();
  // Ends the current chunk at `end` (at most now): probes the host,
  // credits the chunk raw and scaled, and starts the next chunk after the
  // probe. Returns the slowdown the chunk was scaled by.
  double Tick(Clock::time_point end = Clock::now());
  // Ticks only once the current chunk has run for `min_ms`.
  void TickAfter(double min_ms);

  // Time of the chunks ended so far, raw and at the reference speed.
  double raw_s() const { return raw_s_; }
  double scaled_s() const { return scaled_s_; }

 private:
  Clock::time_point chunk_start_;
  double raw_s_ = 0.0;
  double scaled_s_ = 0.0;
  double last_probe_ = 0.0;  // slowdown of the latest probe; 0 before one
};

// Adds the four end-to-end metrics (setup_s, throughput_per_s and
// latency_ms at the reference host speed, and peak_rss_mb) and, as
// per-layer metrics, the raw values beside them and the two slowdowns
// (raw over scaled time of set-up and of the measured phase).
struct EndToEnd {
  double raw_setup_s = 0.0, setup_s = 0.0;
  double raw_throughput = 0.0, throughput = 0.0;
  double raw_latency_ms = 0.0, latency_ms = 0.0;
  double run_slowdown = 1.0;
};
void ReportEndToEnd(const EndToEnd& e, RunResult* out);

// Percentile helpers (nearest rank on a sorted copy).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The highest percentile of {50, 75, 90, 95, 99, 99.9, 99.99} that has at
// least ten of `samples` beyond it; below forty samples only the median
// is reported, so the answer is 50.
double TailPercentile(size_t samples);

// Serialises the result line: {"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..}}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
