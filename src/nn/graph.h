// Scheduler-aware inference graph executor.
//
// Stands in for the MXNet integration of Section 7.3: a chain/DAG of
// operators whose convolutions dispatch to a pluggable backend
// (nDirect, im2col+GEMM, tuned schedules, or the naive reference), so
// end-to-end CNN inference (Fig. 7) can be measured with the conv
// implementation swapped and everything else held fixed.
//
// Beyond the paper's op-at-a-time execution, the executor runs
// independent nodes CONCURRENTLY: nodes are organized into dependency
// levels (ready-set driven, not insertion order), ready nodes are
// handed to a small crew of runner threads, and every convolution
// dispatches onto one shared ThreadPool whose re-entrant run() lets the
// branches' tasks share its workers: each conv seeds its whole PTn x PTk
// grid, and a worker whose task ends picks up the sibling branch's
// pending tasks. Concurrent execution is bitwise-identical
// to sequential execution: tiles own disjoint output blocks and each
// output element's full C reduction happens inside one tile claim, so
// neither the node interleaving nor the worker split can change any
// FP accumulation order (DESIGN.md §10; enforced by the DAG fuzzer).
//
// Nodes are added in topological order; node 0 is the graph input.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/op.h"

namespace ndirect {

using NodeId = int;

/// Observability of one run() call (all fields written by run).
struct GraphRunStats {
  int runners = 0;       ///< runner threads used (1 = sequential)
  int max_inflight = 0;  ///< peak concurrently executing nodes
  /// Node ids in completion order; every node appears after all of its
  /// inputs (the ordering tests assert this under concurrency).
  std::vector<NodeId> completion_order;
};

struct GraphRunOptions {
  /// Execute independent ready nodes concurrently. Off forces the
  /// seed's op-at-a-time loop (A/B benching; results are identical).
  bool concurrent = true;
  /// Runner threads executing node bodies. 0 = one per node of the
  /// widest dependency level, capped at 8. Chain graphs (width 1)
  /// always run inline on the caller. Runners are cheap dispatchers:
  /// the heavy lifting stays on the convs' shared ThreadPool.
  int runners = 0;
  /// When set, accumulates per-op-type wall time (keys are op names).
  /// PhaseTimer is internally locked, so overlapping nodes may add
  /// concurrently; per-op totals remain exact, their sum can exceed
  /// wall time (that is what overlap means).
  PhaseTimer* timer = nullptr;
  GraphRunStats* stats = nullptr;  ///< optional observability
};

class Graph {
 public:
  /// Create a graph whose input has the given NCHW shape.
  Graph(int N, int C, int H, int W);

  /// Append an operator consuming the given upstream nodes; returns the
  /// new node's id. Inputs must be already-added nodes (or 0, input).
  NodeId add(std::unique_ptr<Op> op, std::vector<NodeId> inputs);

  /// Run the whole graph on `input` (shape must match construction).
  /// Default options: concurrent over the dependency levels. One Graph
  /// must not be run from two threads at once (ops lazily plan engines).
  Tensor run(const Tensor& input) const { return run(input, {}); }
  Tensor run(const Tensor& input, const GraphRunOptions& opts) const;

  /// Accumulate per-op-type wall time over one run into `timer`
  /// (keys are op names: "conv", "relu", ...).
  Tensor run_profiled(const Tensor& input, PhaseTimer& timer) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const TensorShape& output_shape() const;
  const TensorShape& shape_of(NodeId id) const;
  Op* op_of(NodeId id);

  /// All ConvOp nodes, in execution order (for backend swaps/tuning).
  std::vector<ConvOp*> conv_ops();

  const std::vector<NodeId>& inputs_of(NodeId id) const;

  /// Swap a node's operator in place. The replacement must infer the
  /// same output shape from the same inputs (checked).
  void replace_op(NodeId id, std::unique_ptr<Op> op);

  /// Total conv flops of one forward pass.
  std::int64_t conv_flops() const;

  /// Dependency levels: level 0 is the input node, a node's level is
  /// 1 + the max level of its inputs. Nodes within one level share no
  /// edges and may execute concurrently.
  std::vector<std::vector<NodeId>> levels() const;

  /// Widest dependency level (1 for a pure chain) — the concurrency
  /// the topology admits.
  int max_width() const;

  /// Point every ConvOp at `pool` (nullptr = the global pool), so all
  /// branches dispatch onto the same workers.
  void set_conv_pool(ThreadPool* pool);

 private:
  struct Node {
    std::unique_ptr<Op> op;  ///< null for the input node
    std::vector<NodeId> inputs;
    TensorShape shape;
  };

  Tensor run_sequential(const Tensor& input,
                        const GraphRunOptions& opts) const;
  Tensor run_concurrent(const Tensor& input, const GraphRunOptions& opts,
                        int runners) const;

  std::vector<Node> nodes_;
  ThreadPool* conv_pool_ = nullptr;  ///< set_conv_pool target
};

}  // namespace ndirect
