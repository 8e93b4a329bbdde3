// Graph-level optimizations.
//
// The paper notes (Sections 8.3, 10) that nDirect, as an operator
// library, lacks the cross-layer optimizations Ansor gets from Relay's
// operator fusion, and names integrating such optimizations as future
// work. These passes implement the inference instances that matter for
// the CNNs here — BatchNorm folded into the preceding convolution's
// weights, and the ReLU and ResNet residual add applied in the
// convolution's store epilogue — as the repo's extension of that
// future-work direction. Every absorbed node is erased from the graph
// (Graph::absorb), so nothing of it runs or allocates at inference.
#pragma once

#include "nn/graph.h"

namespace ndirect {

/// Fold every conv -> batchnorm pair (the BN being the conv's sole
/// consumer, the conv carrying no fused ReLU or residual yet) into the
/// convolution (filter scaling + bias) and erase the BatchNorm node.
/// Returns the number folded. Inference results are unchanged up to
/// FP32 rounding.
int fold_batchnorm(Graph& graph);

/// Fuse into the convolution's store epilogue, erasing the absorbed
/// node, every
///   - conv -> relu pair (the relu being the conv's sole consumer);
///   - conv -> add pair where the conv is the add's later operand (the
///     larger NodeId, so the other operand is already computed when the
///     conv runs; in ResNet projection blocks that is the shortcut
///     conv), the add is its sole consumer, and it has no fused ReLU or
///     residual yet. The add's other operand becomes the conv's second
///     input, its residual; a relu after the add then fuses as above.
/// Returns the number of relu and add nodes absorbed. Results are
/// bitwise unchanged: the epilogue rounds relu((conv + bias) + residual)
/// exactly as the separate ops do. Run fold_batchnorm first on BN
/// networks so conv -> bn -> relu and conv -> bn -> add -> relu chains
/// collapse into single fused convs.
int fuse_conv_relu(Graph& graph);

/// Switch every Ndirect-backend convolution to the int8 path
/// (DESIGN.md §14): u8 activations, per-channel s8 weights, fp32
/// dequantized outputs — so the rest of the graph is untouched.
/// Returns the number switched. Run fold_batchnorm/fuse_conv_relu
/// first so the quantized convs carry the folded bias, residual and
/// ReLU in their epilogue.
int quantize_convs(Graph& graph);

}  // namespace ndirect
