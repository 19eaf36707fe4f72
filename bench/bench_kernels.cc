// Microbenchmarks of the nn kernel layer and the tape — not a paper table;
// this is the performance baseline for the library itself, in the same
// BENCH json format as the experiment benches so tools/bench_diff can gate
// it. Two kinds of values ride in the report:
//
//  * timings (`*_ms`, skipped under --ignore-timings): the dispatch-table
//    matmul family scalar vs SIMD, and a representative attention-shaped
//    training step;
//  * exact counts (zero-tolerance in bench_diff): the scalar/SIMD mismatch
//    count (must be 0 — the bit-exactness contract), tape node count, and
//    chunk and unnamed-region counts from the profiler (pure functions of
//    the workload shapes, identical on every machine and thread count).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "obs/profiler.h"

namespace o2sr {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The model's hot shape family: thousands of edge rows, narrow embeddings.
constexpr int kRows = 2850;
constexpr int kDim = 32;

size_t CountMismatch(const nn::Tensor& a, const nn::Tensor& b) {
  size_t bad = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) ++bad;
  }
  return bad;
}

// One attention-shaped step: linear + bias + activation, a second
// matmul + activation, a weighted segment sum, and a scalar loss.
struct StepSetup {
  nn::ParameterStore store;
  nn::Parameter* w1;
  nn::Parameter* b1;
  nn::Parameter* w2;
  nn::Tensor x;
  nn::Tensor col;
  std::vector<int> segment;
  int num_segments;

  StepSetup() : x(kRows, kDim), col(kRows, 1) {
    Rng rng(99);
    w1 = store.CreateXavier("w1", kDim, kDim, rng);
    b1 = store.CreateZeros("b1", 1, kDim);
    w2 = store.CreateXavier("w2", kDim, kDim, rng);
    x = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
    col = nn::Tensor::RandomNormal(kRows, 1, 0.5, rng);
    segment.resize(kRows);
    for (int i = 0; i < kRows; ++i) segment[i] = i / 10;
    num_segments = (kRows + 9) / 10;
  }

  // Runs forward + backward once.
  void Run(size_t* nodes_out = nullptr) {
    nn::Tape tape;
    nn::Value in = tape.Input(x);
    nn::Value h1 = tape.Relu(tape.AddRowBroadcast(
        tape.MatMul(in, tape.Param(w1)), tape.Param(b1)));
    nn::Value h2 = tape.Tanh(tape.MatMul(h1, tape.Param(w2)));
    nn::Value pooled =
        tape.WeightedSegmentSum(h2, tape.Input(col), segment, num_segments);
    nn::Value loss = tape.MeanAll(tape.Mul(pooled, pooled));
    tape.Backward(loss);
    if (nodes_out != nullptr) *nodes_out = tape.num_nodes();
  }
};

struct TimedPair {
  const char* label_scalar;
  const char* label_simd;
  double ms_scalar = 0.0;
  double ms_simd = 0.0;
};

}  // namespace

int Main() {
  bench::BenchReport report(
      "kernels", "Kernel dispatch-table and tape baseline",
      "library baseline (no paper table)");
  const bool small = bench::CurrentScale() == bench::Scale::kSmall;
  const int kernel_reps = small ? 40 : 160;
  const int step_reps = small ? 10 : 40;

  // --- dispatch-table matmul family, scalar vs active SIMD level ---------
  const nn::kernels::KernelTable& scalar = nn::kernels::ScalarTable();
  const nn::kernels::KernelTable& active = nn::kernels::Active();
  std::printf("kernel tables: active SIMD level = %s\n",
              nn::kernels::SimdName(nn::kernels::ActiveSimd()));

  Rng rng(7);
  const nn::Tensor a = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(kDim, kDim, 1.0, rng);
  const nn::Tensor a_tall = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  const nn::Tensor b_wide = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  nn::Tensor c_scalar(kRows, kDim), c_simd(kRows, kDim);
  nn::Tensor d_scalar(kDim, kDim), d_simd(kDim, kDim);
  size_t mismatches = 0;

  // matmul_rows: [kRows x kDim] * [kDim x kDim].
  TimedPair mm{"matmul_scalar_ms", "matmul_simd_ms"};
  {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      c_scalar.Fill(0.0f);
      scalar.matmul_rows(a.data(), b.data(), c_scalar.data(), 0, kRows, kDim,
                         kDim, false);
    }
    mm.ms_scalar = MsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      c_simd.Fill(0.0f);
      active.matmul_rows(a.data(), b.data(), c_simd.data(), 0, kRows, kDim,
                         kDim, false);
    }
    mm.ms_simd = MsSince(t0);
    mismatches += CountMismatch(c_scalar, c_simd);
  }

  // matmul_ta_rows: [kRows x kDim]^T * [kRows x kDim] (the weight-gradient
  // shape: long reduction, tiny output).
  TimedPair ta{"matmul_ta_scalar_ms", "matmul_ta_simd_ms"};
  {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      d_scalar.Fill(0.0f);
      scalar.matmul_ta_rows(a_tall.data(), b_wide.data(), d_scalar.data(), 0,
                            kDim, kDim, kRows, kDim, false);
    }
    ta.ms_scalar = MsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      d_simd.Fill(0.0f);
      active.matmul_ta_rows(a_tall.data(), b_wide.data(), d_simd.data(), 0,
                            kDim, kDim, kRows, kDim, false);
    }
    ta.ms_simd = MsSince(t0);
    mismatches += CountMismatch(d_scalar, d_simd);
  }

  // matmul_tb_rows: [kRows x kDim] * [kDim x kDim]^T (the input-gradient
  // shape; b is square here so the transpose view is valid).
  TimedPair tb{"matmul_tb_scalar_ms", "matmul_tb_simd_ms"};
  {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      c_scalar.Fill(0.0f);
      scalar.matmul_tb_rows(a.data(), b.data(), c_scalar.data(), 0, kRows,
                            kDim, kDim, false);
    }
    tb.ms_scalar = MsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kernel_reps; ++r) {
      c_simd.Fill(0.0f);
      active.matmul_tb_rows(a.data(), b.data(), c_simd.data(), 0, kRows, kDim,
                            kDim, false);
    }
    tb.ms_simd = MsSince(t0);
    mismatches += CountMismatch(c_scalar, c_simd);
  }

  for (const TimedPair& p : {mm, ta, tb}) {
    report.AddValue(p.label_scalar, p.ms_scalar);
    report.AddValue(p.label_simd, p.ms_simd);
    std::printf("%-22s %8.1f ms   %-20s %8.1f ms\n", p.label_scalar,
                p.ms_scalar, p.label_simd, p.ms_simd);
  }
  report.AddValue("kernel_mismatch_count", static_cast<double>(mismatches));

  // --- training step -----------------------------------------------------
  StepSetup setup;
  size_t tape_nodes = 0;
  setup.store.ZeroGrads();
  setup.Run(&tape_nodes);  // warm the tensor pool
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < step_reps; ++r) {
    setup.store.ZeroGrads();
    setup.Run();
  }
  const double step_ms = MsSince(t0) / step_reps;
  report.AddValue("step_ms", step_ms);
  report.AddValue("tape_nodes_count", static_cast<double>(tape_nodes));
  std::printf("step: %.2f ms  (%zu tape nodes)\n", step_ms, tape_nodes);

  // --- chunk counts via the profiler -------------------------------------
  // Counts are pure functions of the workload shapes: identical across
  // machines, runs and thread counts (DESIGN.md §12-13).
  {
    obs::Profiler::Global().ResetForTest();
    obs::Profiler::Global().Enable(true);
    setup.store.ZeroGrads();
    setup.Run();
    obs::Profiler::Global().Enable(false);
    const auto regions = obs::Profiler::Global().RegionSnapshot();
    obs::Profiler::Global().ResetForTest();
    uint64_t chunks = 0, unnamed = 0;
    for (const auto& [name, r] : regions) {
      chunks += r.chunks;
      if (name == "(kernel)") unnamed = r.regions;
    }
    report.AddValue("step_chunks_count", static_cast<double>(chunks));
    report.AddValue("unnamed_region_count", static_cast<double>(unnamed));
    std::printf("profile: %llu chunks, %llu unnamed\n",
                static_cast<unsigned long long>(chunks),
                static_cast<unsigned long long>(unnamed));
  }
  return 0;
}

}  // namespace o2sr

int main() { return o2sr::Main(); }
