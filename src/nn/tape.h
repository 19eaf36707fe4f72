#ifndef O2SR_NN_TAPE_H_
#define O2SR_NN_TAPE_H_

#include <vector>

#include "common/rng.h"
#include "nn/op_exec.h"
#include "nn/parameter.h"
#include "nn/tensor.h"

namespace o2sr::nn {

// Handle to a node on a Tape. Cheap to copy; only valid for the Tape that
// created it.
struct Value {
  int id = -1;
  bool valid() const { return id >= 0; }
};

// Reverse-mode automatic differentiation over 2-D tensors.
//
// A fresh Tape is built for every forward pass (define-by-run). Each op
// records an OpDesc node and runs at once through the dispatcher in
// op_exec.cc (DESIGN.md §13). Param leaves alias Parameter::value, and
// gradient slots are zeroed lazily when backward first reaches them. Op
// values and all grads go back to TensorPool when the tape is destroyed.
//
// In addition to dense ops, the tape provides the sparse "segment"
// primitives that graph attention needs (GatherRows, SegmentSoftmax,
// SegmentSum, WeightedSegmentSum): together with MatMul/Concat they express
// every equation of the paper (Eq. 2-17) without dense adjacency matrices.
class Tape {
 public:
  explicit Tape(bool training = true);
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  bool training() const { return training_; }

  // Leaves ------------------------------------------------------------------

  // Constant input (no gradient flows out of the tape through it).
  Value Input(Tensor t);
  // Trainable leaf; Backward() accumulates into p->grad. The leaf aliases
  // p->value, which must not change while the tape is in use.
  Value Param(Parameter* p);

  // Accessors ---------------------------------------------------------------

  // value() of a Param leaf is Parameter::value itself. grad() zero-fills
  // the slot on first access.
  const Tensor& value(Value v) const;
  const Tensor& grad(Value v) const;
  int rows(Value v) const { return desc_of(v.id).rows; }
  int cols(Value v) const { return desc_of(v.id).cols; }
  size_t num_nodes() const { return nodes_.size(); }

  // Dense ops ---------------------------------------------------------------

  Value MatMul(Value a, Value b);
  Value Add(Value a, Value b);
  Value AddN(const std::vector<Value>& xs);
  Value Sub(Value a, Value b);
  Value Mul(Value a, Value b);  // elementwise
  Value Scale(Value a, float s);
  // x: [N,C], bias: [1,C]; adds bias to every row.
  Value AddRowBroadcast(Value x, Value bias);
  // x: [N,C], col: [N,1]; scales row i of x by col[i].
  Value MulColBroadcast(Value x, Value col);
  Value Relu(Value x);
  Value LeakyRelu(Value x, float negative_slope = 0.2f);
  Value Sigmoid(Value x);
  Value Tanh(Value x);
  // Row-wise softmax of [N,C].
  Value SoftmaxRows(Value x);
  // Horizontal concatenation (all inputs share the row count).
  Value ConcatCols(const std::vector<Value>& xs);
  // Extracts columns [start, start+count) of x.
  Value SliceCols(Value x, int start, int count);
  // Row-wise dot product of two [N,C] tensors -> [N,1].
  Value RowwiseDot(Value a, Value b);
  // Inverted dropout; identity when the tape is in inference mode or p == 0.
  Value Dropout(Value x, double p, Rng& rng);

  // Sparse / graph ops ------------------------------------------------------

  // out[e, :] = x[index[e], :]. Backward scatter-adds.
  Value GatherRows(Value x, std::vector<int> index);
  // Softmax of scores[:,0] within each segment. scores: [E,1];
  // segment[e] in [0, num_segments). Empty segments are allowed.
  Value SegmentSoftmax(Value scores, std::vector<int> segment,
                       int num_segments);
  // out[s, :] = sum over {e : segment[e] == s} of x[e, :]. -> [S,C].
  Value SegmentSum(Value x, std::vector<int> segment, int num_segments);
  // SegmentSum(MulColBroadcast(x, col), segment, num_segments) as one op,
  // bit for bit in both passes, without the [E,C] product. x: [E,C],
  // col: [E,1].
  Value WeightedSegmentSum(Value x, Value col, std::vector<int> segment,
                           int num_segments);
  // Like SegmentSum but divides by the segment size (empty segments -> 0).
  Value SegmentMean(Value x, std::vector<int> segment, int num_segments);

  // Reductions / losses -----------------------------------------------------

  // Mean of all entries -> [1,1].
  Value MeanAll(Value x);
  // Mean squared error between same-shaped tensors -> [1,1] (Eq. 16).
  Value MseLoss(Value pred, Value target);
  // Mean absolute error -> [1,1] (Eq. 6).
  Value MaeLoss(Value pred, Value target);

  // Runs backpropagation from `loss`, which must be [1,1]. May be called
  // once per tape.
  void Backward(Value loss);

 private:
  TapeNode& node(int id) {
    O2SR_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)];
  }
  const TapeNode& node(int id) const {
    O2SR_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)];
  }
  const OpDesc& desc_of(int id) const { return node(id).desc; }

  // Appends a node and runs its forward pass.
  Value Push(OpDesc desc);

  bool training_;
  bool backward_done_ = false;
  std::vector<TapeNode> nodes_;
};

}  // namespace o2sr::nn

#endif  // O2SR_NN_TAPE_H_
