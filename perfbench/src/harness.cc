#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

int Spans::Begin(const char* name, int64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.thread = ThreadIndex();
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_ns = NowNs();
  int id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Spans::End(int id) {
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_ns = now;
}

double Spans::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (double d : DurationsMs(name)) total += d;
  return total;
}

std::vector<double> Spans::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back((s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                 first ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.thread, i, s.parent,
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

double ProbeOnceMs() {
  // 256 KiB per thread: serving clients each tick their own clock.
  thread_local std::vector<uint32_t> table(1 << 16);
  static std::atomic<uint64_t> sink{0};
  const auto t0 = Clock::now();
  // Four independent streams of random read-modify-writes with a
  // data-dependent branch each: throughput-bound like the program's own
  // hot paths, so it slows as much as they do when a neighbour shares the
  // core (a single dependent chain slowed about a third as much).
  uint64_t x[4] = {1, 2, 3, 4};
  uint64_t acc = 0;
  for (int i = 0; i < 15000; ++i) {
    for (int j = 0; j < 4; ++j) {
      x[j] = x[j] * 6364136223846793005ull + 1442695040888963407ull + j;
      uint32_t& slot = table[(x[j] >> 44) & (table.size() - 1)];
      if (slot & 1) {
        slot += 3;
        acc += slot;
      } else {
        slot ^= static_cast<uint32_t>(x[j]);
        acc -= slot >> 3;
      }
    }
  }
  sink.fetch_add(acc, std::memory_order_relaxed);
  return MillisBetween(t0, Clock::now());
}

double ProbeSlowdown() {
  ProbeOnceMs();  // brings the table back into cache after the workload
  return Median({ProbeOnceMs(), ProbeOnceMs(), ProbeOnceMs()}) /
         HostClock::kReferenceProbeMs;
}

}  // namespace

void HostClock::ProbeFirst() {
  last_probe_ = ProbeSlowdown();
  chunk_start_ = Clock::now();
}

double HostClock::Tick(Clock::time_point end) {
  const double probe = ProbeSlowdown();
  const double slowdown =
      last_probe_ > 0.0 ? (last_probe_ + probe) / 2.0 : probe;
  last_probe_ = probe;
  const double chunk_s = SecondsBetween(chunk_start_, end);
  raw_s_ += chunk_s;
  scaled_s_ += chunk_s / slowdown;
  chunk_start_ = Clock::now();
  return slowdown;
}

void HostClock::TickAfter(double min_ms) {
  if (MillisBetween(chunk_start_, Clock::now()) >= min_ms) Tick();
}

void ReportEndToEnd(const EndToEnd& e, RunResult* out) {
  out->AddEndToEnd("setup_s", e.setup_s, "s");
  out->AddEndToEnd("throughput_per_s", e.throughput, "1/s");
  out->AddEndToEnd("latency_ms", e.latency_ms, "ms");
  out->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  out->AddLayer("host.setup_slowdown", e.raw_setup_s / e.setup_s, "1");
  out->AddLayer("host.run_slowdown", e.run_slowdown, "1");
  out->AddLayer("detail.raw_setup_s", e.raw_setup_s, "s");
  out->AddLayer("detail.raw_throughput_per_s", e.raw_throughput, "1/s");
  out->AddLayer("detail.raw_latency_ms", e.raw_latency_ms, "ms");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailPercentile(size_t samples) {
  if (samples < 40) return 50.0;
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0};
  for (double p : kLadder) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100).
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      return p;
    }
  }
  return 50.0;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
