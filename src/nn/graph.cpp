#include "nn/graph.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "runtime/trace.h"

namespace ndirect {

Graph::Graph(int N, int C, int H, int W) {
  Node input;
  input.shape = {N, C, H, W};
  nodes_.push_back(std::move(input));
}

NodeId Graph::add(std::unique_ptr<Op> op, std::vector<NodeId> inputs) {
  if (inputs.empty()) throw std::invalid_argument("op needs inputs");
  std::vector<TensorShape> in_shapes;
  for (NodeId id : inputs) {
    if (id < 0 || id >= node_count()) {
      throw std::invalid_argument("bad input node id");
    }
    in_shapes.push_back(nodes_[static_cast<std::size_t>(id)].shape);
  }
  Node node;
  node.shape = op->infer(in_shapes);
  node.op = std::move(op);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  output_ = node_count() - 1;
  return output_;
}

std::vector<std::vector<NodeId>> Graph::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  int deepest = 0;
  // Nodes are stored in topological order, so one forward sweep fixes
  // every level.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    int l = 0;
    for (NodeId in : nodes_[i].inputs) {
      l = std::max(l, level[static_cast<std::size_t>(in)] + 1);
    }
    level[i] = l;
    deepest = std::max(deepest, l);
  }
  std::vector<std::vector<NodeId>> out(
      static_cast<std::size_t>(deepest) + 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out[static_cast<std::size_t>(level[i])].push_back(
        static_cast<NodeId>(i));
  }
  return out;
}

int Graph::max_width() const {
  int width = 1;
  for (const auto& level : levels()) {
    width = std::max(width, static_cast<int>(level.size()));
  }
  return width;
}

void Graph::set_conv_pool(ThreadPool* pool) {
  conv_pool_ = pool;
  for (ConvOp* c : conv_ops()) c->set_pool(pool);
}

Tensor Graph::run_sequential(const Tensor& input,
                             const GraphRunOptions& opts) const {
  // values[0] stays empty: node 0's readers get `input` itself.
  std::vector<Tensor> values(nodes_.size());
  if (opts.stats != nullptr) {
    *opts.stats = {};
    opts.stats->runners = 1;
    opts.stats->max_inflight = 1;
    opts.stats->completion_order.reserve(nodes_.size() - 1);
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::vector<const Tensor*> args;
    args.reserve(node.inputs.size());
    for (NodeId id : node.inputs) {
      args.push_back(id == 0 ? &input : &values[static_cast<std::size_t>(id)]);
    }
    if (trace_on())
      TraceSession::global().begin(node.op->name(), "node",
                                   static_cast<std::int64_t>(i));
    if (opts.timer != nullptr) {
      WallTimer t;
      values[i] = node.op->forward(args);
      opts.timer->add(node.op->name(), t.seconds());
    } else {
      values[i] = node.op->forward(args);
    }
    if (trace_on()) TraceSession::global().end(node.op->name());
    if (opts.stats != nullptr) {
      opts.stats->completion_order.push_back(static_cast<NodeId>(i));
    }
  }
  return output_ == 0 ? input.clone()
                      : std::move(values[static_cast<std::size_t>(output_)]);
}

Tensor Graph::run_concurrent(const Tensor& input,
                             const GraphRunOptions& opts,
                             int runners) const {
  const std::size_t n = nodes_.size();
  // Slots are preallocated and never move; a slot is written exactly
  // once, by the runner that executes its node, strictly before the
  // completion is published under the mutex — so consumers (which only
  // read inputs already in completion_order) race with nothing.
  // values[0] stays empty: node 0's readers get `input` itself.
  std::vector<Tensor> values(n);

  std::vector<int> indeg(n, 0);
  std::vector<std::vector<NodeId>> consumers(n);
  for (std::size_t i = 1; i < n; ++i) {
    indeg[i] = static_cast<int>(nodes_[i].inputs.size());
    for (NodeId in : nodes_[i].inputs) {
      consumers[static_cast<std::size_t>(in)].push_back(
          static_cast<NodeId>(i));
    }
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<NodeId> ready;
  int remaining = static_cast<int>(n) - 1;
  int inflight = 0;
  int max_inflight = 0;
  std::vector<NodeId> completion_order;
  completion_order.reserve(n - 1);
  std::exception_ptr error;

  // "Complete" the input node: its consumers with no other pending
  // inputs become the initial ready set.
  for (NodeId c : consumers[0]) {
    if (--indeg[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
  }

  auto runner = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] {
        return error != nullptr || remaining == 0 || !ready.empty();
      });
      if (error != nullptr || remaining == 0) return;
      const NodeId id = ready.back();
      ready.pop_back();
      ++inflight;
      max_inflight = std::max(max_inflight, inflight);
      lock.unlock();

      const Node& node = nodes_[static_cast<std::size_t>(id)];
      std::vector<const Tensor*> args;
      args.reserve(node.inputs.size());
      for (NodeId in : node.inputs) {
        args.push_back(in == 0 ? &input
                               : &values[static_cast<std::size_t>(in)]);
      }
      Tensor out;
      try {
        if (trace_on())
          TraceSession::global().begin(node.op->name(), "node",
                                       static_cast<std::int64_t>(id));
        if (opts.timer != nullptr) {
          WallTimer t;
          out = node.op->forward(args);
          opts.timer->add(node.op->name(), t.seconds());
        } else {
          out = node.op->forward(args);
        }
        if (trace_on()) TraceSession::global().end(node.op->name());
      } catch (...) {
        // Balance the span even on the error path so the exported
        // trace keeps every lane's B/E stack well-formed.
        if (trace_on()) TraceSession::global().end(node.op->name());
        lock.lock();
        if (error == nullptr) error = std::current_exception();
        --inflight;
        cv.notify_all();
        return;
      }
      values[static_cast<std::size_t>(id)] = std::move(out);

      lock.lock();
      --inflight;
      --remaining;
      completion_order.push_back(id);
      for (NodeId c : consumers[static_cast<std::size_t>(id)]) {
        if (--indeg[static_cast<std::size_t>(c)] == 0) {
          ready.push_back(c);
        }
      }
      // Waking everyone is deliberate: several nodes may have become
      // ready, and the final completion must release all runners.
      cv.notify_all();
    }
  };

  // Dedicated (cheap, short-lived) runner crew rather than pool tasks:
  // node bodies dispatch onto the ThreadPool themselves, and consuming
  // pool workers for graph bookkeeping would starve the conv gangs the
  // runners are trying to keep busy. The caller is runner #0.
  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(runners) - 1);
  for (int i = 1; i < runners; ++i) {
    crew.emplace_back([&runner, i] {
      // Lane registration only while a session is live: crew threads
      // are short-lived, and an inactive trace should not grow the
      // lane registry run after run.
      if (trace_on())
        set_trace_lane_name("graph-runner-" + std::to_string(i));
      runner();
    });
  }
  // The caller is runner #0 but keeps its own lane identity (renaming
  // the main thread's lane would mislabel everything it records later).
  runner();
  for (auto& t : crew) t.join();

  if (error != nullptr) std::rethrow_exception(error);
  if (opts.stats != nullptr) {
    *opts.stats = {};
    opts.stats->runners = runners;
    opts.stats->max_inflight = max_inflight;
    opts.stats->completion_order = std::move(completion_order);
  }
  return output_ == 0 ? input.clone()
                      : std::move(values[static_cast<std::size_t>(output_)]);
}

Tensor Graph::run(const Tensor& input, const GraphRunOptions& opts) const {
  const int width = max_width();
  int runners = opts.runners > 0 ? opts.runners : std::min(width, 8);
  if (!opts.concurrent || width <= 1 || runners <= 1 ||
      nodes_.size() <= 2) {
    return run_sequential(input, opts);
  }
  return run_concurrent(input, opts, runners);
}

Tensor Graph::run_profiled(const Tensor& input, PhaseTimer& timer) const {
  GraphRunOptions opts;
  opts.timer = &timer;
  return run(input, opts);
}

const TensorShape& Graph::output_shape() const {
  return nodes_[static_cast<std::size_t>(output_)].shape;
}

const TensorShape& Graph::shape_of(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).shape;
}

Op* Graph::op_of(NodeId id) {
  return nodes_.at(static_cast<std::size_t>(id)).op.get();
}

std::vector<ConvOp*> Graph::conv_ops() {
  std::vector<ConvOp*> convs;
  for (auto& node : nodes_) {
    if (auto* c = dynamic_cast<ConvOp*>(node.op.get())) {
      convs.push_back(c);
    }
  }
  return convs;
}

const std::vector<NodeId>& Graph::inputs_of(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).inputs;
}

void Graph::absorb(NodeId node, NodeId into) {
  if (node <= 0 || node >= node_count()) {
    throw std::invalid_argument("absorb: bad node id");
  }
  const Node& gone = nodes_[static_cast<std::size_t>(node)];
  std::vector<NodeId> extra = gone.inputs;
  const auto it = std::find(extra.begin(), extra.end(), into);
  if (into <= 0 || it == extra.end()) {
    throw std::invalid_argument("absorb: target is not an input");
  }
  extra.erase(it);
  Node& keep = nodes_[static_cast<std::size_t>(into)];
  std::vector<NodeId> inputs = keep.inputs;
  std::vector<TensorShape> in_shapes;
  for (NodeId in : extra) {
    if (in >= into) {
      throw std::invalid_argument(
          "absorb: an input would follow its consumer");
    }
    inputs.push_back(in);
  }
  for (NodeId in : inputs) {
    in_shapes.push_back(nodes_[static_cast<std::size_t>(in)].shape);
  }
  if (!(gone.shape == keep.shape) ||
      !(keep.op->infer(in_shapes) == keep.shape)) {
    throw std::invalid_argument("absorb: output shape changed");
  }

  keep.inputs = std::move(inputs);
  nodes_.erase(nodes_.begin() + node);
  for (std::size_t i = static_cast<std::size_t>(node); i < nodes_.size();
       ++i) {
    for (NodeId& in : nodes_[i].inputs) {
      if (in == node) {
        in = into;
      } else if (in > node) {
        --in;
      }
    }
  }
  if (output_ == node) {
    output_ = into;
  } else if (output_ > node) {
    --output_;
  }
}

std::int64_t Graph::conv_flops() const {
  std::int64_t total = 0;
  for (const auto& node : nodes_) {
    if (const auto* c = dynamic_cast<const ConvOp*>(node.op.get())) {
      total += c->params().flops();
    }
  }
  return total;
}

}  // namespace ndirect
