#include "nn/tape.h"

#include <memory>
#include <utility>

#include "nn/buffer_pool.h"

namespace o2sr::nn {

Tape::Tape(bool training) : training_(training) {}

Tape::~Tape() {
  // Return every buffer drawn from the pool: the next step's tape reuses
  // them instead of re-faulting fresh pages. Input values came from the
  // caller, so pooling them would grow the pool by the inputs every step;
  // param leaves hold no buffer.
  TensorPool& pool = TensorPool::Global();
  for (TapeNode& n : nodes_) {
    if (n.desc.kind != OpKind::kInput) pool.Release(std::move(n.value));
    pool.Release(std::move(n.grad));
  }
}

Value Tape::Push(OpDesc desc) {
  TapeNode n;
  n.desc = std::move(desc);
  nodes_.push_back(std::move(n));
  const int id = static_cast<int>(nodes_.size()) - 1;
  detail::ExecuteForward(nodes_, id);
  return Value{id};
}

const Tensor& Tape::value(Value v) const {
  node(v.id);  // bounds check
  return detail::InputValue(nodes_, v.id);
}

const Tensor& Tape::grad(Value v) const {
  auto* self = const_cast<Tape*>(this);
  self->node(v.id);  // bounds check
  return detail::GradSlot(self->nodes_, v.id);
}

Value Tape::Input(Tensor t) {
  OpDesc d;
  d.kind = OpKind::kInput;
  d.rows = t.rows();
  d.cols = t.cols();
  TapeNode n;
  n.desc = std::move(d);
  n.value = std::move(t);
  nodes_.push_back(std::move(n));
  return Value{static_cast<int>(nodes_.size()) - 1};
}

Value Tape::Param(Parameter* p) {
  O2SR_CHECK(p != nullptr);
  OpDesc d;
  d.kind = OpKind::kParam;
  d.rows = p->value.rows();
  d.cols = p->value.cols();
  d.param = p;
  return Push(std::move(d));
}

Value Tape::MatMul(Value a, Value b) {
  const OpDesc& da = desc_of(a.id);
  const OpDesc& db = desc_of(b.id);
  O2SR_CHECK_EQ(da.cols, db.rows);
  OpDesc d;
  d.kind = OpKind::kMatMul;
  d.rows = da.rows;
  d.cols = db.cols;
  d.inputs = {a.id, b.id};
  return Push(std::move(d));
}

Value Tape::Add(Value a, Value b) {
  const OpDesc& da = desc_of(a.id);
  const OpDesc& db = desc_of(b.id);
  O2SR_CHECK(da.rows == db.rows && da.cols == db.cols);
  OpDesc d;
  d.kind = OpKind::kAdd;
  d.rows = da.rows;
  d.cols = da.cols;
  d.inputs = {a.id, b.id};
  return Push(std::move(d));
}

Value Tape::AddN(const std::vector<Value>& xs) {
  O2SR_CHECK(!xs.empty());
  const OpDesc& d0 = desc_of(xs[0].id);
  OpDesc d;
  d.kind = OpKind::kAddN;
  d.rows = d0.rows;
  d.cols = d0.cols;
  d.inputs.reserve(xs.size());
  for (Value v : xs) {
    const OpDesc& dv = desc_of(v.id);
    O2SR_CHECK(dv.rows == d.rows && dv.cols == d.cols);
    d.inputs.push_back(v.id);
  }
  return Push(std::move(d));
}

Value Tape::Sub(Value a, Value b) {
  const OpDesc& da = desc_of(a.id);
  const OpDesc& db = desc_of(b.id);
  O2SR_CHECK(da.rows == db.rows && da.cols == db.cols);
  OpDesc d;
  d.kind = OpKind::kSub;
  d.rows = da.rows;
  d.cols = da.cols;
  d.inputs = {a.id, b.id};
  return Push(std::move(d));
}

Value Tape::Mul(Value a, Value b) {
  const OpDesc& da = desc_of(a.id);
  const OpDesc& db = desc_of(b.id);
  O2SR_CHECK(da.rows == db.rows && da.cols == db.cols);
  OpDesc d;
  d.kind = OpKind::kMul;
  d.rows = da.rows;
  d.cols = da.cols;
  d.inputs = {a.id, b.id};
  return Push(std::move(d));
}

Value Tape::Scale(Value a, float s) {
  const OpDesc& da = desc_of(a.id);
  OpDesc d;
  d.kind = OpKind::kScale;
  d.rows = da.rows;
  d.cols = da.cols;
  d.alpha = s;
  d.inputs = {a.id};
  return Push(std::move(d));
}

Value Tape::AddRowBroadcast(Value x, Value bias) {
  const OpDesc& dx = desc_of(x.id);
  const OpDesc& db = desc_of(bias.id);
  O2SR_CHECK_EQ(db.rows, 1);
  O2SR_CHECK_EQ(db.cols, dx.cols);
  OpDesc d;
  d.kind = OpKind::kAddRowBroadcast;
  d.rows = dx.rows;
  d.cols = dx.cols;
  d.inputs = {x.id, bias.id};
  return Push(std::move(d));
}

Value Tape::MulColBroadcast(Value x, Value col) {
  const OpDesc& dx = desc_of(x.id);
  const OpDesc& dc = desc_of(col.id);
  O2SR_CHECK_EQ(dc.cols, 1);
  O2SR_CHECK_EQ(dc.rows, dx.rows);
  OpDesc d;
  d.kind = OpKind::kMulColBroadcast;
  d.rows = dx.rows;
  d.cols = dx.cols;
  d.inputs = {x.id, col.id};
  return Push(std::move(d));
}

namespace {

OpDesc UnaryDesc(OpKind kind, const OpDesc& dx, int id) {
  OpDesc d;
  d.kind = kind;
  d.rows = dx.rows;
  d.cols = dx.cols;
  d.inputs = {id};
  return d;
}

}  // namespace

Value Tape::Relu(Value x) {
  return Push(UnaryDesc(OpKind::kRelu, desc_of(x.id), x.id));
}

Value Tape::LeakyRelu(Value x, float negative_slope) {
  OpDesc d = UnaryDesc(OpKind::kLeakyRelu, desc_of(x.id), x.id);
  d.alpha = negative_slope;
  return Push(std::move(d));
}

Value Tape::Sigmoid(Value x) {
  return Push(UnaryDesc(OpKind::kSigmoid, desc_of(x.id), x.id));
}

Value Tape::Tanh(Value x) {
  return Push(UnaryDesc(OpKind::kTanh, desc_of(x.id), x.id));
}

Value Tape::SoftmaxRows(Value x) {
  return Push(UnaryDesc(OpKind::kSoftmaxRows, desc_of(x.id), x.id));
}

Value Tape::ConcatCols(const std::vector<Value>& xs) {
  O2SR_CHECK(!xs.empty());
  const int rows = desc_of(xs[0].id).rows;
  OpDesc d;
  d.kind = OpKind::kConcatCols;
  d.rows = rows;
  d.cols = 0;
  d.inputs.reserve(xs.size());
  for (Value v : xs) {
    const OpDesc& dv = desc_of(v.id);
    O2SR_CHECK_EQ(dv.rows, rows);
    d.cols += dv.cols;
    d.inputs.push_back(v.id);
  }
  return Push(std::move(d));
}

Value Tape::SliceCols(Value x, int start, int count) {
  const OpDesc& dx = desc_of(x.id);
  O2SR_CHECK(start >= 0 && count > 0 && start + count <= dx.cols);
  OpDesc d;
  d.kind = OpKind::kSliceCols;
  d.rows = dx.rows;
  d.cols = count;
  d.slice_start = start;
  d.inputs = {x.id};
  return Push(std::move(d));
}

Value Tape::RowwiseDot(Value a, Value b) {
  const OpDesc& da = desc_of(a.id);
  const OpDesc& db = desc_of(b.id);
  O2SR_CHECK(da.rows == db.rows && da.cols == db.cols);
  OpDesc d;
  d.kind = OpKind::kRowwiseDot;
  d.rows = da.rows;
  d.cols = 1;
  d.inputs = {a.id, b.id};
  return Push(std::move(d));
}

Value Tape::Dropout(Value x, double p, Rng& rng) {
  if (!training_ || p <= 0.0) return x;
  O2SR_CHECK_LT(p, 1.0);
  const OpDesc& dx = desc_of(x.id);
  // The mask is drawn in element order, so the RNG stream is a function of
  // the shapes alone.
  Tensor mask(dx.rows, dx.cols);
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
  }
  OpDesc d;
  d.kind = OpKind::kDropout;
  d.rows = dx.rows;
  d.cols = dx.cols;
  d.inputs = {x.id};
  d.mask = std::make_shared<const Tensor>(std::move(mask));
  return Push(std::move(d));
}

Value Tape::GatherRows(Value x, std::vector<int> index) {
  const OpDesc& dx = desc_of(x.id);
  for (int i : index) O2SR_CHECK(i >= 0 && i < dx.rows);
  OpDesc d;
  d.kind = OpKind::kGatherRows;
  d.rows = static_cast<int>(index.size());
  d.cols = dx.cols;
  d.inputs = {x.id};
  d.index = std::make_shared<const std::vector<int>>(std::move(index));
  return Push(std::move(d));
}

Value Tape::SegmentSoftmax(Value scores, std::vector<int> segment,
                           int num_segments) {
  const OpDesc& ds = desc_of(scores.id);
  O2SR_CHECK_EQ(ds.cols, 1);
  O2SR_CHECK_EQ(static_cast<size_t>(ds.rows), segment.size());
  for (int s : segment) O2SR_CHECK(s >= 0 && s < num_segments);
  OpDesc d;
  d.kind = OpKind::kSegmentSoftmax;
  d.rows = ds.rows;
  d.cols = 1;
  d.num_segments = num_segments;
  d.inputs = {scores.id};
  d.index = std::make_shared<const std::vector<int>>(std::move(segment));
  return Push(std::move(d));
}

Value Tape::SegmentSum(Value x, std::vector<int> segment, int num_segments) {
  const OpDesc& dx = desc_of(x.id);
  O2SR_CHECK_EQ(static_cast<size_t>(dx.rows), segment.size());
  for (int s : segment) O2SR_CHECK(s >= 0 && s < num_segments);
  OpDesc d;
  d.kind = OpKind::kSegmentSum;
  d.rows = num_segments;
  d.cols = dx.cols;
  d.num_segments = num_segments;
  d.inputs = {x.id};
  d.index = std::make_shared<const std::vector<int>>(std::move(segment));
  return Push(std::move(d));
}

Value Tape::WeightedSegmentSum(Value x, Value col, std::vector<int> segment,
                               int num_segments) {
  const OpDesc& dx = desc_of(x.id);
  const OpDesc& dc = desc_of(col.id);
  O2SR_CHECK_EQ(dc.cols, 1);
  O2SR_CHECK_EQ(dc.rows, dx.rows);
  O2SR_CHECK_EQ(static_cast<size_t>(dx.rows), segment.size());
  for (int s : segment) O2SR_CHECK(s >= 0 && s < num_segments);
  OpDesc d;
  d.kind = OpKind::kWeightedSegmentSum;
  d.rows = num_segments;
  d.cols = dx.cols;
  d.num_segments = num_segments;
  d.inputs = {x.id, col.id};
  d.index = std::make_shared<const std::vector<int>>(std::move(segment));
  return Push(std::move(d));
}

Value Tape::SegmentMean(Value x, std::vector<int> segment, int num_segments) {
  const OpDesc& dx = desc_of(x.id);
  O2SR_CHECK_EQ(static_cast<size_t>(dx.rows), segment.size());
  std::vector<int> counts(static_cast<size_t>(num_segments), 0);
  for (int s : segment) {
    O2SR_CHECK(s >= 0 && s < num_segments);
    ++counts[static_cast<size_t>(s)];
  }
  OpDesc d;
  d.kind = OpKind::kSegmentMean;
  d.rows = num_segments;
  d.cols = dx.cols;
  d.num_segments = num_segments;
  d.inputs = {x.id};
  d.index = std::make_shared<const std::vector<int>>(std::move(segment));
  d.counts = std::make_shared<const std::vector<int>>(std::move(counts));
  return Push(std::move(d));
}

Value Tape::MeanAll(Value x) {
  const OpDesc& dx = desc_of(x.id);
  O2SR_CHECK_GT(static_cast<int64_t>(dx.rows) * dx.cols, 0);
  OpDesc d;
  d.kind = OpKind::kMeanAll;
  d.rows = 1;
  d.cols = 1;
  d.inputs = {x.id};
  return Push(std::move(d));
}

Value Tape::MseLoss(Value pred, Value target) {
  const OpDesc& dp = desc_of(pred.id);
  const OpDesc& dt = desc_of(target.id);
  O2SR_CHECK(dp.rows == dt.rows && dp.cols == dt.cols);
  O2SR_CHECK_GT(static_cast<int64_t>(dp.rows) * dp.cols, 0);
  OpDesc d;
  d.kind = OpKind::kMseLoss;
  d.rows = 1;
  d.cols = 1;
  d.inputs = {pred.id, target.id};
  return Push(std::move(d));
}

Value Tape::MaeLoss(Value pred, Value target) {
  const OpDesc& dp = desc_of(pred.id);
  const OpDesc& dt = desc_of(target.id);
  O2SR_CHECK(dp.rows == dt.rows && dp.cols == dt.cols);
  O2SR_CHECK_GT(static_cast<int64_t>(dp.rows) * dp.cols, 0);
  OpDesc d;
  d.kind = OpKind::kMaeLoss;
  d.rows = 1;
  d.cols = 1;
  d.inputs = {pred.id, target.id};
  return Push(std::move(d));
}

void Tape::Backward(Value loss) {
  O2SR_CHECK(!backward_done_);
  backward_done_ = true;
  const OpDesc& root = desc_of(loss.id);
  O2SR_CHECK_EQ(root.rows, 1);
  O2SR_CHECK_EQ(root.cols, 1);
  detail::GradSlot(nodes_, loss.id).at(0, 0) = 1.0f;
  for (int id = loss.id; id >= 0; --id) detail::ExecuteBackward(nodes_, id);
}

}  // namespace o2sr::nn
