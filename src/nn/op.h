#ifndef O2SR_NN_OP_H_
#define O2SR_NN_OP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace o2sr::nn {

class Parameter;

// The op vocabulary of the tape. One OpDesc fully describes a node: kind,
// output shape, producer ids and the op's scalar/index attributes. The tape
// runs each descriptor at record time through the dispatcher in op_exec.cc,
// so op semantics exist in exactly one place.
enum class OpKind : uint8_t {
  kInput,
  kParam,
  kMatMul,
  kAdd,
  kAddN,
  kSub,
  kMul,
  kScale,
  kAddRowBroadcast,
  kMulColBroadcast,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kTanh,
  kSoftmaxRows,
  kConcatCols,
  kSliceCols,
  kRowwiseDot,
  kDropout,
  kGatherRows,
  kSegmentSoftmax,
  kSegmentSum,
  kWeightedSegmentSum,
  kSegmentMean,
  kMeanAll,
  kMseLoss,
  kMaeLoss,
};

const char* OpKindName(OpKind kind);

struct OpDesc {
  OpKind kind = OpKind::kInput;
  // Output shape, known at record time (shape inference never needs the
  // input values).
  int rows = 0;
  int cols = 0;
  // Scale factor (kScale) or negative slope (kLeakyRelu).
  float alpha = 0.0f;
  // kSliceCols start column (the width is `cols`).
  int slice_start = 0;
  // kSegment*, kWeightedSegmentSum: number of output segments.
  int num_segments = 0;
  // Producer node ids, in op order.
  std::vector<int> inputs;
  // Row/segment indices (kGatherRows, kSegment*, kWeightedSegmentSum).
  std::shared_ptr<const std::vector<int>> index;
  // kSegmentMean: per-segment element counts.
  std::shared_ptr<const std::vector<int>> counts;
  // kDropout: the inverted-dropout mask, drawn at record time in element
  // order.
  std::shared_ptr<const Tensor> mask;
  // kParam leaf.
  Parameter* param = nullptr;
};

}  // namespace o2sr::nn

#endif  // O2SR_NN_OP_H_
