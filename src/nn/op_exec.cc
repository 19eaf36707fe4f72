#include "nn/op_exec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "nn/buffer_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "obs/profiler.h"

namespace o2sr::nn {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kParam: return "param";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kAdd: return "add";
    case OpKind::kAddN: return "add_n";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAddRowBroadcast: return "add_row_broadcast";
    case OpKind::kMulColBroadcast: return "mul_col_broadcast";
    case OpKind::kRelu: return "relu";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSoftmaxRows: return "softmax_rows";
    case OpKind::kConcatCols: return "concat_cols";
    case OpKind::kSliceCols: return "slice_cols";
    case OpKind::kRowwiseDot: return "rowwise_dot";
    case OpKind::kDropout: return "dropout";
    case OpKind::kGatherRows: return "gather_rows";
    case OpKind::kSegmentSoftmax: return "segment_softmax";
    case OpKind::kSegmentSum: return "segment_sum";
    case OpKind::kWeightedSegmentSum: return "weighted_segment_sum";
    case OpKind::kSegmentMean: return "segment_mean";
    case OpKind::kMeanAll: return "mean_all";
    case OpKind::kMseLoss: return "mse_loss";
    case OpKind::kMaeLoss: return "mae_loss";
  }
  return "unknown";
}

namespace detail {
namespace {

// Grains are pure functions of the shapes, never of the thread count
// (DESIGN.md §8). They are deliberately much coarser than the tensor.cc
// legacy policy: every kernel dispatched here parallelizes over disjoint
// output rows/elements (no cross-chunk accumulation), so the chunk size
// cannot change bits — only scheduling overhead. ~2M flops per chunk keeps
// the big [edges x dim] matmuls at a handful of chunks per region (still
// plenty for a 4-lane pool) instead of the thousands the old 64K-flop
// grain produced. Reductions are NOT dispatched through this file; their
// fold association is pinned by the tensor.cc grain, which must not change.
constexpr int64_t kFlopsPerChunk = int64_t{1} << 21;
constexpr int64_t kElementGrain = int64_t{1} << 18;

int64_t RowGrain(int64_t flops_per_row) {
  return std::max<int64_t>(1,
                           kFlopsPerChunk / std::max<int64_t>(1, flops_per_row));
}

// Row grain for elementwise-cost row ops (copies, broadcasts).
int64_t RowGrainElems(int cols) {
  return std::max<int64_t>(1, kElementGrain / std::max(1, cols));
}

// Runs chunk_fn over [0, n) in grain-sized chunks. A single-chunk kernel
// runs directly on the caller — such a region could never leave the calling
// thread, so it is not recorded as a parallel region (the multi-chunk
// dispatch path keeps full accounting under `name`).
template <typename Fn>
void Dispatch(int64_t n, int64_t grain, const char* name, Fn&& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain) {
    fn(int64_t{0}, n);
    return;
  }
  exec::CurrentPool().RunChunks(n, grain, fn, nullptr, name);
}

// Forward-pass attribution: each op is charged its output plus a
// same-shaped grad, and moves its operands and output once. Items = output
// elements.
inline void ProfileOp(const char* name, const Tensor& out,
                      uint64_t operand_bytes) {
  O2SR_PROFILE_OP(name, uint64_t{2} * out.size() * sizeof(float),
                  operand_bytes + out.size() * sizeof(float), out.size());
}

inline uint64_t TensorBytes(const Tensor& t) {
  return t.size() * sizeof(float);
}

// Output slot, drawn from the recycling pool. Pooled buffers carry stale
// contents; every forward op either fully overwrites its output or Fill(0)s
// it first, so reuse cannot change bits.
Tensor& EnsureOut(TapeNode& n) {
  n.value = TensorPool::Global().Acquire(n.desc.rows, n.desc.cols);
  return n.value;
}

}  // namespace

const Tensor& InputValue(const std::vector<TapeNode>& nodes, int id) {
  const TapeNode& n = nodes[static_cast<size_t>(id)];
  // Param leaves are never copied onto the tape.
  if (n.desc.kind == OpKind::kParam) return n.desc.param->value;
  return n.value;
}

Tensor& GradSlot(std::vector<TapeNode>& nodes, int id) {
  TapeNode& n = nodes[static_cast<size_t>(id)];
  if (n.grad.rows() != n.desc.rows || n.grad.cols() != n.desc.cols) {
    n.grad = TensorPool::Global().AcquireZeroed(n.desc.rows, n.desc.cols);
  }
  return n.grad;
}

void ExecuteForward(std::vector<TapeNode>& nodes, int id) {
  TapeNode& node = nodes[static_cast<size_t>(id)];
  const OpDesc& d = node.desc;
  const kernels::KernelTable& K = kernels::Active();
  switch (d.kind) {
    case OpKind::kInput:
    case OpKind::kParam:
      return;  // inputs hold their tensor; params alias Parameter::value
    case OpKind::kMatMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      const int k = a.cols(), n = b.cols();
      ProfileOp("tape.matmul", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(a.rows(), RowGrain(int64_t{2} * k * n), "nn.matmul",
               [&](int64_t rb, int64_t re) {
                 K.matmul_rows(a.data(), b.data(), out.data(), rb, re, k, n,
                               /*accumulate=*/false);
               });
      return;
    }
    case OpKind::kAdd: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.add",
               [&](int64_t bi, int64_t ei) {
                 K.add(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kAddN: {
      std::vector<const float*> ins;
      ins.reserve(d.inputs.size());
      for (int in : d.inputs) ins.push_back(InputValue(nodes, in).data());
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add_n", out,
                static_cast<uint64_t>(d.inputs.size()) * TensorBytes(out));
      float* o = out.data();
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.add",
               [&](int64_t bi, int64_t ei) {
                 if (ins.size() == 1) {
                   std::copy(ins[0] + bi, ins[0] + ei, o + bi);
                   return;
                 }
                 K.add(ins[0], ins[1], o, bi, ei);
                 for (size_t i = 2; i < ins.size(); ++i) {
                   K.acc_add(o, ins[i], bi, ei);
                 }
               });
      return;
    }
    case OpKind::kSub: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.sub", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.sub",
               [&](int64_t bi, int64_t ei) {
                 K.sub(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mul", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.mul",
               [&](int64_t bi, int64_t ei) {
                 K.mul(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kScale: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.scale", out, TensorBytes(out));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.scale",
               [&](int64_t bi, int64_t ei) {
                 K.scale(a.data(), d.alpha, out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kAddRowBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add_row_broadcast", out,
                TensorBytes(x) + TensorBytes(b));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.add_row_broadcast",
               [&](int64_t rb, int64_t re) {
                 K.add_row_broadcast(x.data(), b.data(), out.data(), rb, re,
                                     x.cols());
               });
      return;
    }
    case OpKind::kMulColBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mul_col_broadcast", out,
                TensorBytes(x) + TensorBytes(c));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.mul_col_broadcast",
               [&](int64_t rb, int64_t re) {
                 K.mul_col_broadcast(x.data(), c.data(), out.data(), rb, re,
                                     x.cols());
               });
      return;
    }
    case OpKind::kRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.relu", out, TensorBytes(out));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.relu",
               [&](int64_t bi, int64_t ei) {
                 K.relu(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kLeakyRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.leaky_relu", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain,
               "nn.leaky_relu", [&](int64_t bi, int64_t ei) {
                 K.leaky_relu(x.data(), d.alpha, out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kSigmoid: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.sigmoid", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.sigmoid",
               [&](int64_t bi, int64_t ei) {
                 kernels::SigmoidForward(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kTanh: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.tanh", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.tanh",
               [&](int64_t bi, int64_t ei) {
                 kernels::TanhForward(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kSoftmaxRows: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.softmax_rows", out, TensorBytes(x));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.softmax_rows",
               [&](int64_t rb, int64_t re) {
                 kernels::SoftmaxRowsForward(x.data(), out.data(), rb, re,
                                             x.cols());
               });
      return;
    }
    case OpKind::kConcatCols: {
      std::vector<const float*> ins;
      std::vector<int> widths;
      ins.reserve(d.inputs.size());
      widths.reserve(d.inputs.size());
      for (int in : d.inputs) {
        const Tensor& t = InputValue(nodes, in);
        ins.push_back(t.data());
        widths.push_back(t.cols());
      }
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.concat_cols", out, TensorBytes(out));
      const int total = out.cols();
      float* o = out.data();
      Dispatch(out.rows(), RowGrainElems(total), "nn.concat_cols",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   float* dst = o + r * total;
                   for (size_t k = 0; k < ins.size(); ++k) {
                     const float* src = ins[k] + r * widths[k];
                     std::copy(src, src + widths[k], dst);
                     dst += widths[k];
                   }
                 }
               });
      return;
    }
    case OpKind::kSliceCols: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.slice_cols", out, TensorBytes(out));
      const int xc = x.cols(), count = out.cols(), start = d.slice_start;
      const float* xp = x.data();
      float* o = out.data();
      Dispatch(out.rows(), RowGrainElems(count), "nn.slice_cols",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   const float* src = xp + r * xc + start;
                   std::copy(src, src + count, o + r * count);
                 }
               });
      return;
    }
    case OpKind::kRowwiseDot: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.rowwise_dot", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(a.rows(), RowGrain(2 * a.cols()), "nn.rowwise_dot",
               [&](int64_t rb, int64_t re) {
                 kernels::RowwiseDotForward(a.data(), b.data(), out.data(),
                                            rb, re, a.cols());
               });
      return;
    }
    case OpKind::kDropout: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& mask = *d.mask;
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.dropout", out, TensorBytes(x) + TensorBytes(mask));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.mul",
               [&](int64_t bi, int64_t ei) {
                 K.mul(x.data(), mask.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kGatherRows: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.gather_rows", out, TensorBytes(out));
      const int cols = x.cols();
      const int* idx = d.index->data();
      Dispatch(static_cast<int64_t>(d.index->size()), RowGrainElems(cols),
               "nn.gather_rows", [&](int64_t eb, int64_t ee) {
                 kernels::GatherRowsForward(x.data(), idx + eb, ee - eb,
                                            out.data() + eb * cols, cols);
               });
      return;
    }
    case OpKind::kSegmentSoftmax: {
      const Tensor& s = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.segment_softmax", out, TensorBytes(s));
      // Cross-element segment reductions: one ordered pass (the segment
      // max/sum accumulation order is the contract).
      kernels::SegmentSoftmaxForward(s.data(), d.index->data(), s.rows(),
                                     d.num_segments, out.data());
      return;
    }
    case OpKind::kSegmentSum: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      out.Fill(0.0f);  // pooled buffers carry stale values
      ProfileOp("tape.segment_sum", out, TensorBytes(x));
      kernels::SegmentSumForward(x.data(), d.index->data(), x.rows(),
                                 out.data(), x.cols());
      return;
    }
    case OpKind::kWeightedSegmentSum: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      out.Fill(0.0f);
      ProfileOp("tape.weighted_segment_sum", out,
                TensorBytes(x) + TensorBytes(c));
      // Scatter-add with duplicate segments: e-order is the contract, runs
      // unchunked. The [E x C] product is never materialized.
      kernels::MulColSegmentSumForward(x.data(), c.data(), d.index->data(),
                                       x.rows(), out.data(), x.cols());
      return;
    }
    case OpKind::kSegmentMean: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      out.Fill(0.0f);
      ProfileOp("tape.segment_mean", out, TensorBytes(x));
      kernels::SegmentMeanForward(x.data(), d.index->data(),
                                  d.counts->data(), x.rows(), out.data(),
                                  x.cols());
      return;
    }
    case OpKind::kMeanAll: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mean_all", out, TensorBytes(x));
      // Tensor::Sum folds fixed-grain partials left-to-right; that
      // association is the contract at every thread count.
      out.at(0, 0) = static_cast<float>(x.Sum() / x.size());
      return;
    }
    case OpKind::kMseLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mse_loss", out, TensorBytes(p) + TensorBytes(t));
      out.at(0, 0) = static_cast<float>(
          kernels::MseForward(p.data(), t.data(),
                              static_cast<int64_t>(p.size())));
      return;
    }
    case OpKind::kMaeLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mae_loss", out, TensorBytes(p) + TensorBytes(t));
      out.at(0, 0) = static_cast<float>(
          kernels::MaeForward(p.data(), t.data(),
                              static_cast<int64_t>(p.size())));
      return;
    }
  }
  O2SR_CHECK(false);  // unreachable: every kind returns above
}

void ExecuteBackward(std::vector<TapeNode>& nodes, int id) {
  TapeNode& node = nodes[static_cast<size_t>(id)];
  const OpDesc& d = node.desc;
  const kernels::KernelTable& K = kernels::Active();
  if (d.kind == OpKind::kInput) return;  // constants take no gradient
  const Tensor& g = GradSlot(nodes, id);
  switch (d.kind) {
    case OpKind::kInput:
      return;
    case OpKind::kParam:
      d.param->grad.AddInPlace(g);
      return;
    case OpKind::kMatMul: {
      // dA += dC * B^T ; dB += A^T * dC. Accumulate-mode kernels replicate
      // the reference temp-then-add (the row sum is built first, then added
      // once per element), without materializing the temps.
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      const int m = a.rows(), k = a.cols(), n = b.cols();
      ProfileOp("tape.matmul_bwd", g, TensorBytes(a) + TensorBytes(b));
      Dispatch(m, RowGrain(int64_t{2} * n * k), "nn.matmul_tb",
               [&](int64_t rb, int64_t re) {
                 K.matmul_tb_rows(g.data(), b.data(), ga.data(), rb, re,
                                  /*k=*/n, /*n=*/k, /*accumulate=*/true);
               });
      Dispatch(k, RowGrain(int64_t{2} * m * n), "nn.matmul_ta",
               [&](int64_t rb, int64_t re) {
                 K.matmul_ta_rows(a.data(), g.data(), gb.data(), rb, re,
                                  /*m=*/k, /*k=*/m, /*n=*/n,
                                  /*accumulate=*/true);
               });
      return;
    }
    case OpKind::kAdd: {
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(ga.data(), g.data(), bi, ei);
                 K.acc_add(gb.data(), g.data(), bi, ei);
               });
      return;
    }
    case OpKind::kAddN: {
      std::vector<float*> gs;
      gs.reserve(d.inputs.size());
      for (int in : d.inputs) gs.push_back(GradSlot(nodes, in).data());
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 for (float* gi : gs) K.acc_add(gi, g.data(), bi, ei);
               });
      return;
    }
    case OpKind::kSub: {
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(ga.data(), g.data(), bi, ei);
                 K.acc_sub(gb.data(), g.data(), bi, ei);
               });
      return;
    }
    case OpKind::kMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_mul",
               [&](int64_t bi, int64_t ei) {
                 K.acc_mul(ga.data(), g.data(), b.data(), bi, ei);
                 K.acc_mul(gb.data(), g.data(), a.data(), bi, ei);
               });
      return;
    }
    case OpKind::kScale: {
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_scale",
               [&](int64_t bi, int64_t ei) {
                 K.acc_scale(ga.data(), g.data(), d.alpha, bi, ei);
               });
      return;
    }
    case OpKind::kAddRowBroadcast: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(gx.data(), g.data(), bi, ei);
               });
      // Bias gradient sums rows in order (the accumulation order pins the
      // result); runs unchunked.
      kernels::ColSumAcc(g.data(), gb.data(), g.rows(), g.cols());
      return;
    }
    case OpKind::kMulColBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Tensor& gc = GradSlot(nodes, d.inputs[1]);
      Dispatch(g.rows(), RowGrainElems(g.cols()), "nn.acc_mul_col_bwd_x",
               [&](int64_t rb, int64_t re) {
                 K.acc_mul_col_bwd_x(g.data(), c.data(), gx.data(), rb, re,
                                     g.cols());
               });
      Dispatch(g.rows(), RowGrain(2 * g.cols()), "nn.mul_col_bwd_col",
               [&](int64_t rb, int64_t re) {
                 kernels::MulColBwdColAcc(g.data(), x.data(), gc.data(), rb,
                                          re, g.cols());
               });
      return;
    }
    case OpKind::kRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain,
               "nn.acc_relu_bwd", [&](int64_t bi, int64_t ei) {
                 K.acc_relu_bwd(x.data(), g.data(), gx.data(), bi, ei);
               });
      return;
    }
    case OpKind::kLeakyRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain,
               "nn.acc_leaky_bwd", [&](int64_t bi, int64_t ei) {
                 K.acc_leaky_bwd(x.data(), d.alpha, g.data(), gx.data(), bi,
                                 ei);
               });
      return;
    }
    case OpKind::kSigmoid: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain,
               "nn.acc_sigmoid_bwd", [&](int64_t bi, int64_t ei) {
                 K.acc_sigmoid_bwd(node.value.data(), g.data(), gx.data(),
                                   bi, ei);
               });
      return;
    }
    case OpKind::kTanh: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain,
               "nn.acc_tanh_bwd", [&](int64_t bi, int64_t ei) {
                 K.acc_tanh_bwd(node.value.data(), g.data(), gx.data(), bi,
                                ei);
               });
      return;
    }
    case OpKind::kSoftmaxRows: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Dispatch(g.rows(), RowGrain(2 * g.cols()), "nn.softmax_rows_bwd",
               [&](int64_t rb, int64_t re) {
                 kernels::SoftmaxRowsBackward(node.value.data(), g.data(),
                                              gx.data(), rb, re, g.cols());
               });
      return;
    }
    case OpKind::kConcatCols: {
      int offset = 0;
      for (int in : d.inputs) {
        Tensor& gi = GradSlot(nodes, in);
        const int w = gi.cols(), total = g.cols(), off = offset;
        Dispatch(g.rows(), RowGrainElems(w), "nn.acc_add",
                 [&](int64_t rb, int64_t re) {
                   for (int64_t r = rb; r < re; ++r) {
                     K.acc_add(gi.data() + r * w, g.data() + r * total + off,
                               0, w);
                   }
                 });
        offset += w;
      }
      return;
    }
    case OpKind::kSliceCols: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const int xc = gx.cols(), count = g.cols(), start = d.slice_start;
      Dispatch(g.rows(), RowGrainElems(count), "nn.acc_add",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   K.acc_add(gx.data() + r * xc + start,
                             g.data() + r * count, 0, count);
                 }
               });
      return;
    }
    case OpKind::kRowwiseDot: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& ga = GradSlot(nodes, d.inputs[0]);
      Tensor& gb = GradSlot(nodes, d.inputs[1]);
      Dispatch(a.rows(), RowGrainElems(a.cols()), "nn.acc_rowwise_dot_bwd",
               [&](int64_t rb, int64_t re) {
                 K.acc_rowwise_dot_bwd(g.data(), a.data(), b.data(),
                                       ga.data(), gb.data(), rb, re,
                                       a.cols());
               });
      return;
    }
    case OpKind::kDropout: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const Tensor& mask = *d.mask;
      Dispatch(static_cast<int64_t>(g.size()), kElementGrain, "nn.acc_mul",
               [&](int64_t bi, int64_t ei) {
                 K.acc_mul(gx.data(), g.data(), mask.data(), bi, ei);
               });
      return;
    }
    case OpKind::kGatherRows: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      // Scatter-add with possibly duplicate indices: e-order is the
      // contract, runs unchunked.
      kernels::GatherRowsBackward(g.data(), d.index->data(),
                                  static_cast<int64_t>(d.index->size()),
                                  gx.data(), gx.cols());
      return;
    }
    case OpKind::kSegmentSoftmax: {
      Tensor& gs = GradSlot(nodes, d.inputs[0]);
      kernels::SegmentSoftmaxBackward(node.value.data(), g.data(),
                                      d.index->data(), node.value.rows(),
                                      d.num_segments, gs.data());
      return;
    }
    case OpKind::kSegmentSum: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const int cols = gx.cols();
      const int* seg = d.index->data();
      Dispatch(gx.rows(), RowGrainElems(cols), "nn.segment_sum_bwd",
               [&](int64_t eb, int64_t ee) {
                 kernels::SegmentSumBackward(g.data(), seg + eb, ee - eb,
                                             gx.data() + eb * cols, cols);
               });
      return;
    }
    case OpKind::kWeightedSegmentSum: {
      // The generic pair's backward, row by row: SegmentSum hands edge e the
      // gradient row g[segment[e], :], and the MulColBroadcast backward
      // kernels consume it unchanged (DESIGN.md §13 gives the bit-exactness
      // argument). Rows are disjoint, so the chunking cannot change bits.
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      Tensor& gc = GradSlot(nodes, d.inputs[1]);
      const int cols = x.cols();
      const int* seg = d.index->data();
      Dispatch(x.rows(), RowGrainElems(cols), "nn.weighted_segment_sum_bwd",
               [&](int64_t eb, int64_t ee) {
                 for (int64_t e = eb; e < ee; ++e) {
                   const float* ge =
                       g.data() + static_cast<int64_t>(seg[e]) * cols;
                   K.acc_mul_col_bwd_x(ge, c.data() + e, gx.data() + e * cols,
                                       0, 1, cols);
                   kernels::MulColBwdColAcc(ge, x.data() + e * cols,
                                            gc.data() + e, 0, 1, cols);
                 }
               });
      return;
    }
    case OpKind::kSegmentMean: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const int cols = gx.cols();
      const int* seg = d.index->data();
      const int* counts = d.counts->data();
      Dispatch(gx.rows(), RowGrainElems(cols), "nn.segment_mean_bwd",
               [&](int64_t eb, int64_t ee) {
                 kernels::SegmentMeanBackward(g.data(), seg + eb, counts,
                                              ee - eb, gx.data() + eb * cols,
                                              cols);
               });
      return;
    }
    case OpKind::kMeanAll: {
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const float gv = g.at(0, 0) / static_cast<float>(gx.size());
      Dispatch(static_cast<int64_t>(gx.size()), kElementGrain,
               "nn.acc_const", [&](int64_t bi, int64_t ei) {
                 K.acc_const(gx.data(), gv, bi, ei);
               });
      return;
    }
    case OpKind::kMseLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& gp = GradSlot(nodes, d.inputs[0]);
      Tensor& gt = GradSlot(nodes, d.inputs[1]);
      const float scale = 2.0f * g.at(0, 0) / static_cast<float>(p.size());
      Dispatch(static_cast<int64_t>(p.size()), kElementGrain, "nn.mse_bwd",
               [&](int64_t bi, int64_t ei) {
                 kernels::MseBackward(p.data() + bi, t.data() + bi, scale,
                                      gp.data() + bi, gt.data() + bi,
                                      ei - bi);
               });
      return;
    }
    case OpKind::kMaeLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& gp = GradSlot(nodes, d.inputs[0]);
      Tensor& gt = GradSlot(nodes, d.inputs[1]);
      const float scale = g.at(0, 0) / static_cast<float>(p.size());
      Dispatch(static_cast<int64_t>(p.size()), kElementGrain, "nn.mae_bwd",
               [&](int64_t bi, int64_t ei) {
                 kernels::MaeBackward(p.data() + bi, t.data() + bi, scale,
                                      gp.data() + bi, gt.data() + bi,
                                      ei - bi);
               });
      return;
    }
  }
  O2SR_CHECK(false);  // unreachable
}

}  // namespace detail
}  // namespace o2sr::nn
