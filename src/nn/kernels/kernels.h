#ifndef O2SR_NN_KERNELS_KERNELS_H_
#define O2SR_NN_KERNELS_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace o2sr::nn::kernels {

// Vectorized compute primitives behind the tape's op dispatcher.
//
// Two implementations of every vector-friendly kernel are compiled from the
// same source (kernels_impl.inl): a scalar/SSE2 baseline TU and an AVX2 TU
// built with -mavx2 (never -mfma: a fused multiply-add would change
// rounding and break the bit-exactness contract). Because both TUs compile
// identical per-element expressions and every loop either writes disjoint
// elements or keeps its accumulation order, the two tables produce
// bit-identical results — vectorization only changes how many disjoint
// elements are in flight, never the arithmetic applied to each one.
// DESIGN.md §13 documents the contract.
//
// Dispatch: Active() resolves once per process from O2SR_SIMD
//   off / scalar — force the baseline table
//   avx2         — force AVX2 (aborts if the CPU lacks it)
//   auto / unset — probe the CPU (__builtin_cpu_supports)
//
// Kernels that cannot be vectorized without changing results (libm calls,
// ordered double-precision accumulations, scatter loops) have a single
// shared implementation in kernels_common.cc and are listed in the registry
// at level "scalar".

enum class Simd { kScalar, kAvx2 };

// The active SIMD level, resolved once (env + cpuid).
Simd ActiveSimd();
const char* SimdName(Simd level);

// Vector-friendly kernels, one entry per primitive. Row-major matrices.
// Range arguments ([begin, end) over flat elements or output rows) let the
// executor chunk a kernel across exec::ThreadPool lanes; every chunk's
// writes are disjoint.
struct KernelTable {
  // --- dense matmul family (ranges are output rows) ---
  // C[i,:] (+)= A[i,:] * B.  A: [m x k], B: [k x n]. Skips zero A entries
  // (identical to the reference loop, and ReLU-sparse activations make the
  // skip common). accumulate=false zeroes each output row first.
  void (*matmul_rows)(const float* a, const float* b, float* c,
                      int64_t row_begin, int64_t row_end, int k, int n,
                      bool accumulate);
  // C[i,:] (+)= sum_p A[p,i] * B[p,:].  A: [k x m], B: [k x n]; `m` is the
  // full output row count (the stride of A's rows). The row sum is built in
  // a scratch row then applied, so accumulate mode matches the reference
  // temp-then-add bit for bit.
  void (*matmul_ta_rows)(const float* a, const float* b, float* c,
                         int64_t row_begin, int64_t row_end, int m, int k,
                         int n, bool accumulate);
  // C[i,j] (+)= dot(A[i,:], B[j,:]) with four accumulator chains folded as
  // (c0+c1)+(c2+c3).  A: [m x k], B: [n x k].
  void (*matmul_tb_rows)(const float* a, const float* b, float* c,
                         int64_t row_begin, int64_t row_end, int k, int n,
                         bool accumulate);

  // --- elementwise (ranges over flat elements) ---
  void (*add)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*sub)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*mul)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*scale)(const float* a, float s, float* out, int64_t begin,
                int64_t end);
  void (*acc_add)(float* dst, const float* src, int64_t begin, int64_t end);
  void (*acc_sub)(float* dst, const float* src, int64_t begin, int64_t end);
  void (*acc_scale)(float* dst, const float* src, float s, int64_t begin,
                    int64_t end);
  // dst[i] += g[i] * m[i]  (dropout/mul backward)
  void (*acc_mul)(float* dst, const float* g, const float* m, int64_t begin,
                  int64_t end);
  void (*acc_const)(float* dst, float c, int64_t begin, int64_t end);
  void (*relu)(const float* x, float* out, int64_t begin, int64_t end);
  void (*leaky_relu)(const float* x, float slope, float* out, int64_t begin,
                     int64_t end);
  // gx[i] += g[i] where x[i] > 0
  void (*acc_relu_bwd)(const float* x, const float* g, float* gx,
                       int64_t begin, int64_t end);
  void (*acc_leaky_bwd)(const float* x, float slope, const float* g,
                        float* gx, int64_t begin, int64_t end);
  // gx[i] += g[i] * y[i] * (1 - y[i])  (y = sigmoid output)
  void (*acc_sigmoid_bwd)(const float* y, const float* g, float* gx,
                          int64_t begin, int64_t end);
  // gx[i] += g[i] * (1 - y[i]^2)  (y = tanh output)
  void (*acc_tanh_bwd)(const float* y, const float* g, float* gx,
                       int64_t begin, int64_t end);

  // --- row-structured (ranges over rows) ---
  // out[r,:] = x[r,:] + bias[0,:]
  void (*add_row_broadcast)(const float* x, const float* bias, float* out,
                            int64_t row_begin, int64_t row_end, int cols);
  // out[r,:] = x[r,:] * col[r]
  void (*mul_col_broadcast)(const float* x, const float* col, float* out,
                            int64_t row_begin, int64_t row_end, int cols);
  // gx[r,:] += g[r,:] * col[r]
  void (*acc_mul_col_bwd_x)(const float* g, const float* col, float* gx,
                            int64_t row_begin, int64_t row_end, int cols);
  // gra[r,:] += g[r] * vb[r,:] ; grb[r,:] += g[r] * va[r,:]
  void (*acc_rowwise_dot_bwd)(const float* g, const float* va,
                              const float* vb, float* ga, float* gb,
                              int64_t row_begin, int64_t row_end, int cols);
};

// The dispatch table for the active SIMD level.
const KernelTable& Active();
// Specific tables (tests compare them element for element).
const KernelTable& ScalarTable();
// Null when the build/CPU cannot run AVX2.
const KernelTable* Avx2Table();

// --- shared scalar kernels (kernels_common.cc) ---
// Sequential semantics (libm, ordered double accumulation, scatter); one
// implementation for every SIMD level.

void SigmoidForward(const float* x, float* out, int64_t begin, int64_t end);
void TanhForward(const float* x, float* out, int64_t begin, int64_t end);
// Row-wise softmax with per-row max shift and double sum.
void SoftmaxRowsForward(const float* x, float* out, int64_t row_begin,
                        int64_t row_end, int cols);
void SoftmaxRowsBackward(const float* y, const float* g, float* gx,
                         int64_t row_begin, int64_t row_end, int cols);
// out[r] = dot(a[r,:], b[r,:]) with a double accumulator.
void RowwiseDotForward(const float* a, const float* b, float* out,
                       int64_t row_begin, int64_t row_end, int cols);
// gb[0,c] += sum_r g[r,c], rows processed in order.
void ColSumAcc(const float* g, float* gb, int64_t rows, int cols);
// gcol[r] += dot(g[r,:], x[r,:]) with a double accumulator (per row, so
// the kernel chunks over rows).
void MulColBwdColAcc(const float* g, const float* x, float* gcol,
                     int64_t row_begin, int64_t row_end, int cols);
// Gather / segment primitives (serial scatter order is the contract).
void GatherRowsForward(const float* x, const int* index, int64_t num_index,
                       float* out, int cols);
void GatherRowsBackward(const float* g, const int* index, int64_t num_index,
                        float* gx, int cols);
void SegmentSumForward(const float* x, const int* segment, int64_t rows,
                       float* out, int cols);
void SegmentSumBackward(const float* g, const int* segment, int64_t rows,
                        float* gx, int cols);
void SegmentMeanForward(const float* x, const int* segment,
                        const int* counts, int64_t rows, float* out,
                        int cols);
void SegmentMeanBackward(const float* g, const int* segment,
                         const int* counts, int64_t rows, float* gx,
                         int cols);
void SegmentSoftmaxForward(const float* scores, const int* segment,
                           int64_t rows, int num_segments, float* out);
void SegmentSoftmaxBackward(const float* y, const float* g,
                            const int* segment, int64_t rows,
                            int num_segments, float* gs);
// Forward of Tape::WeightedSegmentSum:
// out[segment[e], :] += x[e, :] * col[e], e in order. `out` must be
// zeroed by the caller; the [rows x cols] product is never materialized.
// Each product is rounded to float before the add, exactly like
// SegmentSum(MulColBroadcast(x, col)).
void MulColSegmentSumForward(const float* x, const float* col,
                             const int* segment, int64_t rows, float* out,
                             int cols);
// Losses: forward returns the scalar; backward accumulates into both grads.
double MseForward(const float* p, const float* t, int64_t n);
double MaeForward(const float* p, const float* t, int64_t n);
void MseBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n);
void MaeBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n);

// Registry of every kernel with the SIMD level it runs at, for
// introspection and the bench_kernels report. Names are stable.
struct KernelInfo {
  std::string name;
  std::string simd;  // "avx2" or "scalar"
};
std::vector<KernelInfo> Registry();

}  // namespace o2sr::nn::kernels

#endif  // O2SR_NN_KERNELS_KERNELS_H_
