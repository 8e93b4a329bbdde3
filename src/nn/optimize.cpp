#include "nn/optimize.h"

#include <algorithm>
#include <vector>

namespace ndirect {
namespace {

/// Input edges from later nodes into `id` (add(x, x) counts x twice).
int consumer_count(const Graph& graph, NodeId id) {
  int count = 0;
  for (NodeId node = id + 1; node < graph.node_count(); ++node) {
    for (NodeId in : graph.inputs_of(node)) count += in == id ? 1 : 0;
  }
  return count;
}

/// The conv at `id` when it is a ConvOp whose only consumer is the node
/// about to be absorbed into it; nullptr otherwise.
ConvOp* sole_consumer_conv(Graph& graph, NodeId id) {
  auto* conv = dynamic_cast<ConvOp*>(graph.op_of(id));
  return conv != nullptr && consumer_count(graph, id) == 1 ? conv : nullptr;
}

}  // namespace

int fold_batchnorm(Graph& graph) {
  int folded = 0;
  for (NodeId id = 1; id < graph.node_count(); ++id) {
    auto* bn = dynamic_cast<BatchNormOp*>(graph.op_of(id));
    if (bn == nullptr) continue;
    const NodeId conv_id = graph.inputs_of(id)[0];
    ConvOp* conv = sole_consumer_conv(graph, conv_id);
    // The affine map only commutes into the weights when nothing
    // follows the conv's sum: no fused ReLU, no residual input.
    if (conv == nullptr || conv->fused_relu() ||
        graph.inputs_of(conv_id).size() != 1) {
      continue;
    }

    // y = s*(conv(x) + b0) + t  ==  conv'(x) + b' with
    // filter'[k] = s[k]*filter[k],  b'[k] = s[k]*b0[k] + t[k].
    const ConvParams& p = conv->params();
    const std::vector<float>& scale = bn->scale();
    const std::vector<float>& shift = bn->shift();
    Tensor& filter = conv->filter();
    const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
    for (int k = 0; k < p.K; ++k) {
      float* row = filter.data() + k * crs;
      const float s = scale[static_cast<std::size_t>(k)];
      for (std::int64_t i = 0; i < crs; ++i) row[i] *= s;
    }
    std::vector<float>& bias = conv->bias();
    if (bias.empty()) bias.assign(static_cast<std::size_t>(p.K), 0.0f);
    for (int k = 0; k < p.K; ++k) {
      bias[static_cast<std::size_t>(k)] =
          scale[static_cast<std::size_t>(k)] *
              bias[static_cast<std::size_t>(k)] +
          shift[static_cast<std::size_t>(k)];
    }
    graph.absorb(id--, conv_id);  // the next node now has this id
    ++folded;
  }
  return folded;
}

int fuse_conv_relu(Graph& graph) {
  int fused = 0;
  for (NodeId id = 1; id < graph.node_count(); ++id) {
    Op* op = graph.op_of(id);
    const std::vector<NodeId>& in = graph.inputs_of(id);
    const bool relu = dynamic_cast<ReluOp*>(op) != nullptr;
    if (!relu && dynamic_cast<AddOp*>(op) == nullptr) continue;
    // An add is absorbed by its later operand, so the other one (the
    // residual) is already computed when the conv runs.
    const NodeId conv_id = relu ? in[0] : std::max(in[0], in[1]);
    ConvOp* conv = sole_consumer_conv(graph, conv_id);
    if (conv == nullptr) continue;
    if (relu) {
      conv->set_fused_relu(true);
    } else if (conv->fused_relu() || graph.inputs_of(conv_id).size() != 1) {
      // The epilogue adds the residual before the ReLU, and a conv
      // carries at most one residual.
      continue;
    }
    graph.absorb(id--, conv_id);  // the next node now has this id
    ++fused;
  }
  return fused;
}

int quantize_convs(Graph& graph) {
  int switched = 0;
  for (ConvOp* conv : graph.conv_ops()) {
    if (conv->backend() != ConvBackend::Ndirect) continue;
    conv->set_quantized(true);
    ++switched;
  }
  return switched;
}

}  // namespace ndirect
