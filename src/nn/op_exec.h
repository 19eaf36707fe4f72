#ifndef O2SR_NN_OP_EXEC_H_
#define O2SR_NN_OP_EXEC_H_

#include <vector>

#include "nn/op.h"
#include "nn/tensor.h"

namespace o2sr::nn {

// One tape node: the op descriptor plus its value and gradient slots. The
// value is filled when the op is recorded; kParam leaves leave it empty and
// read Parameter::value in place. The grad slot stays empty until backward
// (or Tape::grad) first touches it.
struct TapeNode {
  OpDesc desc;
  Tensor value;
  Tensor grad;
};

namespace detail {

// The op dispatcher behind nn::Tape (DESIGN.md §13). Semantics — accumulation
// order, the float/double conversions, the scatter orders — are the
// bit-exactness contract at every thread count and SIMD level.

// Fills nodes[id].value (drawing the output from TensorPool) by running the
// op's forward kernels. A no-op for leaves: kInput nodes carry their tensor
// and kParam nodes alias Parameter::value.
void ExecuteForward(std::vector<TapeNode>& nodes, int id);

// Accumulates the gradients of nodes[id]'s inputs from nodes[id].grad
// (materializing grad slots with zeros as needed). For kParam leaves the
// gradient lands in Parameter::grad.
void ExecuteBackward(std::vector<TapeNode>& nodes, int id);

// The value an op reads for node `id`: Parameter::value for a kParam leaf,
// the node's own slot otherwise.
const Tensor& InputValue(const std::vector<TapeNode>& nodes, int id);

// Gradient slot of a node, materialized with zeros when empty.
Tensor& GradSlot(std::vector<TapeNode>& nodes, int id);

}  // namespace detail
}  // namespace o2sr::nn

#endif  // O2SR_NN_OP_EXEC_H_
