// The repo benchmark program: paper-shape fp32 and int8 ResNet-50
// forwards and an open-loop served ResNet-50 request stream, timed from
// outside through the library's public API only.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run that records spans in this file (never
// inside the library), replays the forward node by node, and reports
// the per-layer metrics. Metric definitions, the workload rationale and
// the layer -> end-to-end prediction table are in README.md beside
// this file. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alpha.h"
#include "core/ndirect.h"
#include "nn/graph.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "platform/perf_model.h"
#include "platform/specs.h"
#include "runtime/cpu_info.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"
#include "tensor/rng.h"

using namespace ndirect;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Model weights use fixed seeds; --seed drives only
// the input images and the arrival schedule.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kWeightSeed = 1234;

enum class Kind { kClosedFp32, kClosedInt8, kServe };

struct Workload {
  const char* name;
  Kind kind;
  const char* model;
  int channel_divisor;
  int image_size;
  /// Samples the end-to-end metrics are computed over (the calm third,
  /// see calm_third()). Closed loop: timed forwards continue past
  /// --seconds until the calm third holds at least this many. Open loop:
  /// the run fails with fewer. Either way the tail percentile
  /// (tail_pct) keeps >= 10 samples beyond it.
  int min_samples;
  /// Setup repetitions per untraced run (setup_s is their median).
  int setup_reps;

  /// The highest percentile with at least 10 samples beyond it at
  /// min_samples; fixed per workload so runs compare like with like.
  double tail_pct() const { return 100.0 * (1.0 - 10.0 / min_samples); }
};

constexpr Workload kWorkloads[] = {
    {"resnet50_b1", Kind::kClosedFp32, "ResNet-50", 1, 224, 40, 5},
    {"resnet50_int8_b1", Kind::kClosedInt8, "ResNet-50", 1, 224, 30, 5},
    {"serve_resnet50_small", Kind::kServe, "ResNet-50", 8, 64, 1000, 15},
};

// serve_resnet50_small traffic, frozen (also stated in BENCHMARK.json).
// A partial batch lingers for company until its deadline budget runs
// short, so at this rate nearly every batch fills to 4. The rate is
// well below batch-4 capacity (~540/s on a 4-core Xeon) so that a
// stretch of CPU steal from co-tenants slows the forward without
// pushing the server past capacity; at 430/s and at 300/s it did, and
// runs then shed up to half the requests (README.md, "Noise").
constexpr double kServeRateQps = 200.0;
constexpr std::uint64_t kServeDeadlineNs = 50'000'000;
constexpr int kServeMaxBatch = 4;

// Distinct input images per run (each gets a reference output before
// timing starts; timed forwards cycle through them).
constexpr int kClosedImages = 3;
constexpr int kServeImages = 32;

// Closed loops time forwards in blocks of kBlockForwards; the open loop
// groups arrivals into windows of kServeWindowNs by due time. Each block
// or window records the host CPU steal during it, and the end-to-end
// metrics come from the calmest third (calm_third()).
constexpr int kBlockForwards = 5;
constexpr std::size_t kCalmShare = 3;  // keep 1 / kCalmShare of them
constexpr std::uint64_t kServeWindowNs = 1'000'000'000;

// fp32 nDirect vs Im2colGemm on the same weights: max |diff| over the
// softmax output, relative to the largest reference probability.
constexpr double kBackendRelTol = 1e-4;
// int8 vs fp32 softmax L-inf drift (the bound tests/quantized_test.cpp
// asserts for ResNet-50).
constexpr double kInt8DriftTol = 0.05;
// The node replay's Op::forward times must sum to the sequential
// Graph::run wall within this share of it.
constexpr double kReplayTol = 0.5;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host CPU time stolen by the hypervisor, from /proc/stat: the
/// co-tenant contention that dominates run-to-run noise on a shared VM.
struct StealClock {
  std::uint64_t steal = 0, total = 0;
  static StealClock now() {
    StealClock c;
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    std::uint64_t v = 0;
    for (int i = 0; i < 10 && f >> v; ++i) {
      c.total += v;
      if (i == 7) c.steal = v;
    }
    return c;
  }
  /// Share of all CPU time since `start` that was stolen (0 when
  /// /proc/stat is unreadable).
  double since(const StealClock& start) const {
    return total > start.total ? static_cast<double>(steal - start.steal) /
                                     static_cast<double>(total - start.total)
                               : 0.0;
  }
};

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

/// Indices of the third of the blocks (or windows) with the least host
/// CPU steal, in time order; ties keep the earlier one. Steal is set by
/// other tenants of the VM, not by the program, so selecting on it drops
/// their interference without favouring the program's own fast runs.
std::vector<std::size_t> calm_third(const std::vector<double>& steal) {
  std::vector<std::size_t> idx = all_indices(steal.size());
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  idx.resize(std::max<std::size_t>(1, idx.size() / kCalmShare));
  std::sort(idx.begin(), idx.end());
  return idx;
}

double mean_of(const std::vector<double>& v,
               const std::vector<std::size_t>& idx) {
  double sum = 0;
  for (std::size_t i : idx) sum += v[i];
  return idx.empty() ? 0.0 : sum / static_cast<double>(idx.size());
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.dims() != b.dims()) return INFINITY;
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) -
                              static_cast<double>(b.data()[i])));
  return m;
}

double max_abs(const Tensor& a) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i])));
  return m;
}

// ---------------------------------------------------------------------------
// Result: metrics, human-readable notes and the final JSON line.
// ---------------------------------------------------------------------------

struct Result {
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;  ///< outputs checked
  std::uint64_t failed = 0;     ///< wrong outputs or errored operations

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, unit, value});
  }
  void note(const std::string& s) { notes.push_back(s); }
  /// A run-level condition (not an output): a failure marks the run
  /// incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// One output checked: counts as attempted, and as failed when wrong.
  void verify(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    check(ok, what);
  }
  bool correct() const {
    if (!check_failures.empty() || attempted == 0 || failed != 0 ||
        metrics.empty())
      return false;
    for (const Metric& m : metrics)
      if (!std::isfinite(m.value)) return false;
    return true;
  }

  void print() const {
    for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
    for (const std::string& f : check_failures)
      std::printf("# CHECK FAILED: %s\n", f.c_str());
    for (const Metric& m : metrics)
      if (!std::isfinite(m.value))
        std::printf("# CHECK FAILED: %s is not finite\n", m.name.c_str());
    for (const Metric& m : metrics)
      std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the library. Kept
// in memory, written as a chrome trace at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Open a span on the caller's lane now; close() ends it.
  int open(std::string name, int parent) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({std::move(name), monotonic_ns(), 0, parent, -1, -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    const std::uint64_t t = monotonic_ns();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  /// A span whose interval is already known (serving stages).
  int add(std::string name, std::uint64_t start, std::uint64_t end,
          int parent, std::int64_t req, int batch) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(
        {std::move(name), start, std::max(start, end), parent, req, batch});
    return static_cast<int>(spans_.size()) - 1;
  }

  struct Span {
    std::string name;
    std::uint64_t start_ns, end_ns;
    int parent;
    std::int64_t req;
    int batch;
    std::uint64_t dur() const { return end_ns - start_ns; }
  };
  /// Read only after every recording thread has stopped.
  const std::vector<Span>& spans() const { return spans_; }

  bool write_chrome_trace(const std::string& path) const {
    std::vector<std::size_t> order(spans_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return spans_[a].start_ns < spans_[b].start_ns;
                     });
    std::ofstream f(path);
    if (!f) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_[order[0]].start_ns;
    f << "{\"traceEvents\": [\n";
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Span& s = spans_[order[k]];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d",
                    s.name.c_str(),
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.dur()) / 1e3, order[k], s.parent);
      f << buf;
      if (s.req >= 0) f << ", \"req\": " << s.req;
      if (s.batch >= 0) f << ", \"batch\": " << s.batch;
      f << "}}" << (k + 1 < order.size() ? ",\n" : "\n");
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// In-run roofline probes.
// ---------------------------------------------------------------------------

/// Probes load as many threads as the conv pool runs on (4 on the
/// reference host), so the roofline matches what the engine can use.
int probe_threads() { return static_cast<int>(ThreadPool::global().size()); }

/// FMA peak with probe_threads() threads issuing the library's
/// single-core FMA kernel at once, 15 ~14 ms attempts: each thread's best
/// attempt, summed. Co-tenants slow single vCPUs for milliseconds at a
/// time, so an attempt in which all threads ran fast at once is rare and
/// the best per-attempt sum moved from run to run (README.md, "Noise").
double fma_peak_gflops() {
  const int threads = probe_threads();
  std::vector<double> best(static_cast<std::size_t>(threads), 0.0);
  for (int rep = 0; rep < 15; ++rep) {
    std::barrier sync(threads);
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t)
      ts.emplace_back([&, t] {
        sync.arrive_and_wait();
        double& b = best[static_cast<std::size_t>(t)];
        b = std::max(b, measure_peak_gflops_single_core());
      });
    for (std::thread& t : ts) t.join();
  }
  double sum = 0;
  for (double v : best) sum += v;
  return sum;
}

/// probe_threads()-thread streaming read over `bytes`, GB/s (median of 3
/// passes after a first-touch fill).
double stream_read_gbs(std::size_t bytes) {
  const int threads = probe_threads();
  const std::size_t n = bytes / sizeof(float);
  std::unique_ptr<float[]> buf(new float[n]);
  const std::size_t chunk = n / static_cast<std::size_t>(threads);
  std::vector<double> sinks(static_cast<std::size_t>(threads));
  auto parallel = [&](const std::function<void(std::size_t, std::size_t,
                                               int)>& fn) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = chunk * static_cast<std::size_t>(t);
      const std::size_t hi = t + 1 == threads ? n : lo + chunk;
      ts.emplace_back(fn, lo, hi, t);
    }
    for (std::thread& t : ts) t.join();
  };
  parallel([&](std::size_t lo, std::size_t hi, int) {
    for (std::size_t i = lo; i < hi; ++i) buf[i] = 1.0f;
  });
  std::vector<double> gbs;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = monotonic_ns();
    parallel([&](std::size_t lo, std::size_t hi, int t) {
      float a0 = 0, a1 = 0, a2 = 0, a3 = 0;
      std::size_t i = lo;
      for (; i + 4 <= hi; i += 4) {
        a0 += buf[i];
        a1 += buf[i + 1];
        a2 += buf[i + 2];
        a3 += buf[i + 3];
      }
      for (; i < hi; ++i) a0 += buf[i];
      sinks[static_cast<std::size_t>(t)] += a0 + a1 + a2 + a3;
    });
    const std::uint64_t dt = monotonic_ns() - t0;
    gbs.push_back(static_cast<double>(n * sizeof(float)) /
                  static_cast<double>(dt));
  }
  volatile double guard = sinks[0];
  (void)guard;
  return median(gbs);
}

/// Median wall time of an empty ThreadPool::run over 4 tasks.
double dispatch_us(ThreadPool& pool) {
  for (int i = 0; i < 200; ++i) pool.run(4, [](std::size_t) {});
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t0 = monotonic_ns();
    pool.run(4, [](std::size_t) {});
    us.push_back(static_cast<double>(monotonic_ns() - t0) / 1e3);
  }
  return median(us);
}

// ---------------------------------------------------------------------------
// Graph construction and per-graph facts.
// ---------------------------------------------------------------------------

ModelOptions model_options(const Workload& w) {
  ModelOptions o;
  o.channel_divisor = w.channel_divisor;
  o.image_size = w.image_size;
  o.seed = kWeightSeed;
  return o;
}

std::unique_ptr<Graph> build_fp32(const Workload& w, int batch) {
  std::unique_ptr<Graph> g = build_model(w.model, batch, model_options(w));
  fold_batchnorm(*g);
  fuse_conv_relu(*g);
  return g;
}

Tensor make_image(const Workload& w, std::uint64_t seed, int index) {
  Tensor t = make_input_nchw(1, 3, w.image_size, w.image_size);
  fill_random(t, seed * 1'000'003ULL + static_cast<std::uint64_t>(index));
  return t;
}

/// The conv class a layer belongs to: kernel size x stride.
std::string conv_class(const ConvParams& p) {
  return std::to_string(p.R) + "x" + std::to_string(p.S) + "_s" +
         std::to_string(p.str);
}
const char* const kConvClasses[] = {"1x1_s1", "1x1_s2", "3x3_s1", "3x3_s2",
                                    "7x7_s2"};

struct GraphFacts {
  std::int64_t conv_flops = 0;
  int conv_calls = 0;
  double conv_bytes = 0;          ///< computed: input + filter + output
  double identity_clone_bytes = 0;
  double fc_weight_bytes = 0;
};

GraphFacts graph_facts(Graph& g, bool int8) {
  GraphFacts f;
  f.conv_flops = g.conv_flops();
  for (NodeId id = 1; id < g.node_count(); ++id) {
    Op* op = g.op_of(id);
    const std::string name = op->name();
    const TensorShape& out = g.shape_of(id);
    if (auto* conv = dynamic_cast<ConvOp*>(op)) {
      const ConvParams& p = conv->params();
      ++f.conv_calls;
      const double act = int8 ? 1.0 : 4.0;  // quantized u8 / s8 operands
      f.conv_bytes += act * static_cast<double>(p.input_elems()) +
                      act * static_cast<double>(p.filter_elems()) +
                      4.0 * static_cast<double>(p.output_elems());
    } else if (name == "identity") {
      f.identity_clone_bytes += 4.0 * static_cast<double>(out.elems());
    } else if (name == "fc") {
      const TensorShape& in = g.shape_of(g.inputs_of(id).at(0));
      f.fc_weight_bytes += 4.0 * static_cast<double>(in.elems() / in.N) *
                           static_cast<double>(out.C);
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Closed-loop workloads.
// ---------------------------------------------------------------------------

struct ClosedSetup {
  std::unique_ptr<Graph> graph;
  std::vector<Tensor> images;
  std::vector<Tensor> refs;  ///< first forward of each image
  double setup_s = 0;
};

/// Build, run the graph passes and the warm first forward; with `reps`
/// > 1 repeat and keep the last graph. Runs the backend / int8 checks
/// on the kept graph.
ClosedSetup closed_setup(const Workload& w, std::uint64_t seed, int reps,
                         Result& res) {
  ClosedSetup s;
  for (int i = 0; i < kClosedImages; ++i)
    s.images.push_back(make_image(w, seed, i));
  const bool int8 = w.kind == Kind::kClosedInt8;
  std::vector<double> times;
  Tensor fp32_ref;
  for (int rep = 0; rep < reps; ++rep) {
    s.graph.reset();
    std::uint64_t t0 = monotonic_ns();
    std::unique_ptr<Graph> g = build_fp32(w, 1);
    std::uint64_t paused = 0;
    if (int8) {
      if (rep + 1 == reps) {  // fp32 reference for the drift check
        const std::uint64_t p0 = monotonic_ns();
        fp32_ref = g->run(s.images[0]);
        paused = monotonic_ns() - p0;
      }
      quantize_convs(*g);
    }
    Tensor first = g->run(s.images[0]);
    times.push_back(static_cast<double>(monotonic_ns() - t0 - paused) / 1e9);
    s.graph = std::move(g);
    if (rep + 1 == reps) s.refs.push_back(std::move(first));
  }
  s.setup_s = median(times);
  Graph& g = *s.graph;
  for (int i = 1; i < kClosedImages; ++i)
    s.refs.push_back(g.run(s.images[static_cast<std::size_t>(i)]));

  if (int8) {
    const double drift = max_abs_diff(s.refs[0], fp32_ref);
    res.note("int8 vs fp32 softmax L-inf drift " + fmt(drift) +
             " (bound " + fmt(kInt8DriftTol) + "), max|fp32| " +
             fmt(max_abs(fp32_ref)));
    res.verify(drift < kInt8DriftTol, "int8 softmax drift within bound");
  } else {
    // Same weights through the Im2colGemm backend.
    for (ConvOp* c : g.conv_ops()) c->set_backend(ConvBackend::Im2colGemm);
    const Tensor ref = g.run(s.images[0]);
    for (ConvOp* c : g.conv_ops()) c->set_backend(ConvBackend::Ndirect);
    const double diff = max_abs_diff(s.refs[0], ref);
    const double rel = diff / std::max(max_abs(ref), 1e-30);
    res.note("nDirect vs Im2colGemm softmax max|diff| " + fmt(diff) +
             ", relative to max|ref| " + fmt(max_abs(ref)) + ": " + fmt(rel) +
             " (bound " + fmt(kBackendRelTol) + ")");
    res.verify(rel <= kBackendRelTol, "fp32 output agrees with Im2colGemm");
    // Re-warm the nDirect engines (the backend swap dropped them) and
    // check the re-packed path still reproduces the first forward.
    res.verify(bitwise_equal(g.run(s.images[0]), s.refs[0]),
               "re-warmed forward matches first forward bitwise");
  }
  return s;
}

/// kBlockForwards consecutive forwards of a closed loop.
struct Block {
  std::vector<double> lat_ms;
  std::uint64_t ok = 0;
  double wall_s = 0;
  double steal = 0;  ///< host CPU steal share during the block
};

/// Forwards back to back, in blocks, for at least `seconds` and
/// `min_blocks` blocks; every output is compared bitwise to its image's
/// first forward.
std::vector<Block> closed_loop(ClosedSetup& s, double seconds, int min_blocks,
                               Result& res, SpanLog* spans = nullptr) {
  std::vector<Block> blocks;
  const std::uint64_t until =
      monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t k = 0;
       monotonic_ns() < until || static_cast<int>(blocks.size()) < min_blocks;) {
    Block b;
    const StealClock steal = StealClock::now();
    const std::uint64_t start = monotonic_ns();
    for (int j = 0; j < kBlockForwards; ++j, ++k) {
      const std::size_t i = k % s.images.size();
      const int span =
          spans ? spans->open("bench.forward", SpanLog::kNoParent) : -1;
      const std::uint64_t t0 = monotonic_ns();
      const Tensor out = s.graph->run(s.images[i]);
      const std::uint64_t t1 = monotonic_ns();
      if (spans) spans->close(span);
      b.lat_ms.push_back(ms(t1 - t0));
      ++res.attempted;
      if (bitwise_equal(out, s.refs[i]))
        ++b.ok;
      else
        ++res.failed;
    }
    b.wall_s = static_cast<double>(monotonic_ns() - start) / 1e9;
    b.steal = StealClock::now().since(steal);
    blocks.push_back(std::move(b));
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// Per-layer analysis shared by every workload's traced run (the serve
// workload runs it on its batch-1 graph).
// ---------------------------------------------------------------------------

struct LayerReport {
  std::map<std::string, double> nn_ms;  ///< per op kind, median over reps
  double node_sum_ms = 0;
  double replay_wall_ms = 0;
  /// int8 conv class -> (FLOPs, ms) per forward.
  std::map<std::string, std::pair<double, double>> int8_class_flops_ms;
  TelemetrySnapshot tel;  ///< merged over the replayed fp32 convs
  // Per forward:
  double fp32_ndirect_calls = 0;
  double cache_hits = 0;
  double fp32_fallback_tiles = 0;
  double int8_fallback_tiles = 0;
  bool output_matches = false;
};

std::string op_kind(const std::string& name) {
  if (name == "conv" || name == "add" || name == "relu" ||
      name == "identity" || name == "fc")
    return name;
  if (name == "maxpool" || name == "gavgpool") return "pool";
  return "other";
}

/// Replay one forward node by node through Op::forward, `reps` times,
/// recording a span per node under a "bench.replay" span.
LayerReport replay_nodes(Graph& g, const Tensor& image, const Tensor& ref,
                         int reps, SpanLog& spans) {
  LayerReport r;
  const int n = g.node_count();
  std::vector<int> consumers(static_cast<std::size_t>(n), 0);
  for (NodeId id = 1; id < n; ++id)
    for (NodeId in : g.inputs_of(id)) ++consumers[static_cast<std::size_t>(in)];

  std::vector<std::vector<double>> node_ms(static_cast<std::size_t>(n));
  std::vector<double> replay_ms;
  std::vector<TelemetrySnapshot> sinks(static_cast<std::size_t>(n));
  for (NodeId id = 1; id < n; ++id)
    if (auto* c = dynamic_cast<ConvOp*>(g.op_of(id)))
      c->set_telemetry(&sinks[static_cast<std::size_t>(id)]);

  bool all_match = true;
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 re-warms the engines
    const int root = spans.open("bench.replay", SpanLog::kNoParent);
    std::vector<Tensor> vals(static_cast<std::size_t>(n));
    std::vector<int> left = consumers;
    vals[0] = image.clone();
    for (NodeId id = 1; id < n; ++id) {
      std::vector<const Tensor*> ins;
      for (NodeId in : g.inputs_of(id))
        ins.push_back(&vals[static_cast<std::size_t>(in)]);
      Op* op = g.op_of(id);
      const int sp = spans.open(std::string("bench.node.") + op->name(), root);
      vals[static_cast<std::size_t>(id)] = op->forward(ins);
      spans.close(sp);
      for (NodeId in : g.inputs_of(id))
        if (--left[static_cast<std::size_t>(in)] == 0)
          vals[static_cast<std::size_t>(in)] = Tensor();
      if (rep == 0) continue;
      node_ms[static_cast<std::size_t>(id)].push_back(
          ms(spans.spans()[static_cast<std::size_t>(sp)].dur()));
      if (auto* c = dynamic_cast<ConvOp*>(op)) {
        const std::string cls = conv_class(c->params());
        const double t = node_ms[static_cast<std::size_t>(id)].back();
        const double fl = static_cast<double>(c->params().flops());
        if (c->quantized()) {
          auto& e = r.int8_class_flops_ms[cls];
          e.first += fl;
          e.second += t;
          r.int8_fallback_tiles +=
              static_cast<double>(c->quantized_stats().generic_fallback);
        } else {
          r.tel.merge(sinks[static_cast<std::size_t>(id)]);
          ++r.fp32_ndirect_calls;
        }
      }
    }
    spans.close(root);
    all_match &= bitwise_equal(vals[static_cast<std::size_t>(n - 1)], ref);
    if (rep > 0)
      replay_ms.push_back(
          ms(spans.spans()[static_cast<std::size_t>(root)].dur()));
  }
  for (NodeId id = 1; id < n; ++id)
    if (auto* c = dynamic_cast<ConvOp*>(g.op_of(id))) c->set_telemetry(nullptr);

  // Totals were accumulated over `reps` forwards; make them per forward.
  for (auto& [cls, v] : r.int8_class_flops_ms) {
    v.first /= reps;
    v.second /= reps;
  }
  r.fp32_ndirect_calls /= reps;
  r.int8_fallback_tiles /= reps;
  r.cache_hits = static_cast<double>(r.tel.total(Counter::kCacheHits)) / reps;
  r.fp32_fallback_tiles =
      static_cast<double>(r.tel.total(Counter::kGenericFallback)) / reps;

  for (NodeId id = 1; id < n; ++id) {
    const double t = median(node_ms[static_cast<std::size_t>(id)]);
    r.nn_ms[op_kind(g.op_of(id)->name())] += t;
    r.node_sum_ms += t;
  }
  r.replay_wall_ms = median(replay_ms);
  r.output_matches = all_match;
  return r;
}

struct EngineReport {
  std::map<std::string, std::pair<double, double>> class_flops_ms;
  double predicted_ms = 0, measured_ms = 0;
  std::uint64_t tiles = 0, steals = 0;
  double tile_spread = 0;  ///< sum over convs of max - min worker tiles
  double mean_tiles = 0;   ///< sum over convs of tiles / workers
};

/// Every fp32 conv of the graph re-run through NdirectConv::run with a
/// cached packed filter: per-class GFLOP/s, model prediction and
/// scheduler stats (median of 3 timed runs after a packing run).
EngineReport replay_engine(Graph& g) {
  EngineReport r;
  const PlatformSpec& host = host_platform();
  ThreadPool& pool = ThreadPool::global();
  for (ConvOp* c : g.conv_ops()) {
    if (c->quantized() || c->backend() != ConvBackend::Ndirect) continue;
    const ConvParams& p = c->params();
    SchedulerStats ss;
    NdirectOptions o;
    o.cache_packed_filter = true;
    o.sched_stats = &ss;
    NdirectConv conv(p, o);
    Tensor x = make_input_nchw(p.N, p.C, p.H, p.W);
    fill_random(x, 7);
    const ConvOp& cc = *c;  // the const filter() leaves the op clean
    const std::vector<float>& bias = c->bias();
    ConvEpilogue ep{bias.empty() ? nullptr : bias.data(), c->fused_relu()};
    (void)conv.run(x, cc.filter(), ep);
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t0 = monotonic_ns();
      (void)conv.run(x, cc.filter(), ep);
      t.push_back(ms(monotonic_ns() - t0));
    }
    const double m = median(t);
    auto& e = r.class_flops_ms[conv_class(p)];
    e.first += static_cast<double>(p.flops());
    e.second += m;
    r.measured_ms += m;
    const PerfEstimate est = estimate_conv_perf(
        host, p, ConvMethod::Ndirect, static_cast<int>(pool.size()));
    r.predicted_ms += static_cast<double>(p.flops()) / (est.gflops * 1e6);
    r.tiles += ss.tiles;
    r.steals += ss.steals;
    r.tile_spread +=
        static_cast<double>(ss.max_worker_tiles - ss.min_worker_tiles);
    r.mean_tiles += static_cast<double>(ss.tiles) / std::max(1, ss.workers);
  }
  return r;
}

struct ExecutorAB {
  double seq_ms = 0, conc_ms = 0;  ///< medians
  int max_inflight = 0;
};

/// Executor A/B: Graph::run with the concurrent executor on vs off,
/// alternating, `pairs` times each.
ExecutorAB executor_ab(Graph& g, const Tensor& image, const Tensor& ref,
                       int pairs, Result& res) {
  ExecutorAB ab;
  std::vector<double> seq, conc;
  for (int i = 0; i < pairs; ++i) {
    for (int side = 0; side < 2; ++side) {
      const bool concurrent = (i + side) % 2 == 0;
      GraphRunStats st;
      GraphRunOptions o;
      o.concurrent = concurrent;
      o.stats = &st;
      const std::uint64_t t0 = monotonic_ns();
      const Tensor out = g.run(image, o);
      const double t = ms(monotonic_ns() - t0);
      (concurrent ? conc : seq).push_back(t);
      if (concurrent)
        ab.max_inflight = std::max(ab.max_inflight, st.max_inflight);
      res.verify(bitwise_equal(out, ref), "executor A/B forward matches");
    }
  }
  ab.seq_ms = median(seq);
  ab.conc_ms = median(conc);
  return ab;
}

/// Platform normalisers (per-layer metrics of every traced run).
double add_platform_metrics(Result& res) {
  const CpuInfo cpu = probe_host_cpu();
  const double peak = fma_peak_gflops();
  const std::size_t llc = cpu.cache.l3 ? cpu.cache.l3 : cpu.cache.l2;
  std::size_t bytes = std::max<std::size_t>(4 * llc, 64u << 20);
  bytes = (bytes + (16u << 20) - 1) / (16u << 20) * (16u << 20);
  const double gbs = stream_read_gbs(bytes);
  const PlatformSpec& host = host_platform();
  res.add("platform.fma_peak_gflops", peak, "GFLOP/s");
  res.add("platform.stream_gbs", gbs, "GB/s");
  res.add("platform.stream_buffer_mib",
          static_cast<double>(bytes) / (1 << 20), "MiB");
  res.add("platform.llc_mib", static_cast<double>(llc) / (1 << 20), "MiB");
  res.add("platform.model_peak_gflops", host.peak_gflops, "GFLOP/s");
  res.add("platform.model_stream_gbs", host.bandwidth_gibs * 1.073741824,
          "GB/s");
  res.add("platform.alpha", host_alpha(), "ratio");
  res.note("stream probe: " + std::to_string(probe_threads()) +
           "-thread read of " + std::to_string(bytes >> 20) +
           " MiB (LLC " + std::to_string(llc >> 20) +
           " MiB); perf-model inputs: 1-core peak x " +
           std::to_string(host.cores) + ", 16 MiB 1-thread read");
  return peak;
}

/// nn / core / gemm / runtime layer metrics of `g` (batch 1).
void add_graph_layer_metrics(Graph& g, const Tensor& image, const Tensor& ref,
                             double graph_wall_ms, double peak, int ab_pairs,
                             SpanLog& spans, Result& res) {
  const bool int8 = !g.conv_ops().empty() && g.conv_ops()[0]->quantized();
  const GraphFacts f = graph_facts(g, int8);

  const ExecutorAB ab = executor_ab(g, image, ref, ab_pairs, res);

  const LayerReport lr = replay_nodes(g, image, ref, 3, spans);
  res.verify(lr.output_matches, "node replay output matches Graph::run");
  // The replay must account for the same work as a sequential
  // Graph::run: a replay that skipped or repeated nodes lands far off.
  res.check(std::fabs(ab.seq_ms - lr.node_sum_ms) <= kReplayTol * ab.seq_ms,
            "node replay sum within " + fmt(kReplayTol) +
                " of the sequential Graph::run wall");

  for (const char* k : {"conv", "add", "relu", "identity", "pool", "fc",
                        "other"}) {
    const auto it = lr.nn_ms.find(k);
    res.add(std::string("nn.") + k + "_ms",
            it == lr.nn_ms.end() ? 0.0 : it->second, "ms");
  }
  res.add("nn.node_sum_ms", lr.node_sum_ms, "ms");
  res.add("nn.graph_wall_ms", graph_wall_ms, "ms");
  res.add("nn.unattributed_ms", graph_wall_ms - lr.node_sum_ms, "ms");
  res.add("nn.concurrent_speedup", ab.seq_ms / ab.conc_ms, "x");
  res.add("nn.max_inflight", ab.max_inflight, "count");
  res.add("nn.conv_calls", f.conv_calls, "count");
  res.add("nn.identity_clone_mb", f.identity_clone_bytes / 1e6, "MB");
  res.note("reconciliation: node sum " + fmt(lr.node_sum_ms) +
           " ms (replay wall " + fmt(lr.replay_wall_ms) +
           " ms) vs sequential Graph::run " + fmt(ab.seq_ms) +
           " ms, checked within " + fmt(kReplayTol) + "; node sum " +
           fmt(lr.node_sum_ms) + " ms + unattributed " +
           fmt(graph_wall_ms - lr.node_sum_ms) + " ms = Graph::run wall " +
           fmt(graph_wall_ms) +
           " ms, the gap being Graph::run's own cost over back-to-back "
           "Op::forward calls (executor dispatch, runner threads, tensor "
           "bookkeeping), negative when concurrent branches overlap");

  // core: fp32 engine per conv class (NdirectConv replay), int8 per
  // class (node replay), per-forward counts.
  const EngineReport er = int8 ? EngineReport{} : replay_engine(g);
  for (const char* cls : kConvClasses) {
    const auto it = er.class_flops_ms.find(cls);
    const double gf = it == er.class_flops_ms.end()
                          ? 0.0
                          : it->second.first / (it->second.second * 1e6);
    res.add(std::string("core.gflops_") + cls, gf, "GFLOP/s");
    res.add(std::string("core.frac_of_peak_") + cls, gf / peak, "ratio");
  }
  res.add("core.model_ratio",
          er.measured_ms > 0 ? er.predicted_ms / er.measured_ms : 0.0,
          "ratio");
  res.add("core.pack_frac", lr.tel.phase_fraction(Counter::kPackNs), "ratio");
  res.add("core.transform_frac", lr.tel.phase_fraction(Counter::kTransformNs),
          "ratio");
  res.add("core.microkernel_frac",
          lr.tel.phase_fraction(Counter::kMicrokernelNs), "ratio");
  res.add("core.steal_frac",
          er.tiles ? static_cast<double>(er.steals) /
                         static_cast<double>(er.tiles)
                   : 0.0,
          "ratio");
  res.add("core.imbalance",
          er.mean_tiles > 0 ? er.tile_spread / er.mean_tiles : 0.0,
          "ratio");
  for (const char* cls : kConvClasses) {
    const auto it = lr.int8_class_flops_ms.find(cls);
    res.add(std::string("core.int8_gflops_") + cls,
            it == lr.int8_class_flops_ms.end()
                ? 0.0
                : it->second.first / (it->second.second * 1e6),
            "GFLOP/s");
  }
  res.add("core.int8_generic_fallback_tiles", lr.int8_fallback_tiles,
          "count");
  res.add("core.conv_gflop", static_cast<double>(f.conv_flops) / 1e9, "GFLOP");
  res.add("core.conv_mb_computed", f.conv_bytes / 1e6, "MB");
  res.add("core.filter_cache_hit_ratio",
          lr.fp32_ndirect_calls > 0 ? lr.cache_hits / lr.fp32_ndirect_calls
                                    : 0.0,
          "ratio");
  res.add("core.generic_fallback_tiles", lr.fp32_fallback_tiles, "count");

  const double fc_ms = lr.nn_ms.count("fc") ? lr.nn_ms.at("fc") : 0.0;
  res.add("gemm.fc_gbs", fc_ms > 0 ? f.fc_weight_bytes / (fc_ms * 1e6) : 0.0,
          "GB/s");

  const double disp = dispatch_us(ThreadPool::global());
  res.add("runtime.dispatch_us", disp, "us");
  res.add("runtime.dispatch_frac",
          disp * f.conv_calls / (graph_wall_ms * 1e3), "ratio");
}

void add_zero_serve_metrics(Result& res) {
  for (const char* k :
       {"serve.queue_wait_p50_ms", "serve.queue_wait_tail_ms",
        "serve.execute_p50_ms", "serve.respond_ms", "serve.generator_lag_ms"})
    res.add(k, 0.0, "ms");
  res.add("serve.mean_batch", 0.0, "count");
  for (const char* k : {"serve.shed_admission_frac", "serve.shed_expired_frac",
                        "serve.deadline_miss_frac", "serve.model_ratio"})
    res.add(k, 0.0, "ratio");
}

void run_closed(const Workload& w, std::uint64_t seed, double seconds,
               bool trace, const std::string& out_dir, Result& res) {
  ClosedSetup s = closed_setup(w, seed, trace ? 1 : w.setup_reps, res);
  Graph& g = *s.graph;
  const GraphFacts facts = graph_facts(g, w.kind == Kind::kClosedInt8);

  if (!trace) {
    // Peak probed before and after the loop; the higher one wins.
    const double peak_before = fma_peak_gflops();
    const int min_blocks =
        static_cast<int>(kCalmShare) *
        ((w.min_samples + kBlockForwards - 1) / kBlockForwards);
    const std::vector<Block> blocks =
        closed_loop(s, seconds, min_blocks, res);
    const double peak = std::max(peak_before, fma_peak_gflops());
    std::vector<double> steal, lat;
    for (const Block& b : blocks) steal.push_back(b.steal);
    const std::vector<std::size_t> calm = calm_third(steal);
    double wall = 0, ok = 0;
    for (std::size_t i : calm) {
      lat.insert(lat.end(), blocks[i].lat_ms.begin(), blocks[i].lat_ms.end());
      wall += blocks[i].wall_s;
      ok += static_cast<double>(blocks[i].ok);
    }
    const double ips = static_cast<double>(lat.size()) / wall;
    res.add("setup_s", s.setup_s, "s");
    res.add("images_per_s", ips, "1/s");
    res.add("goodput_qps", ok / wall, "1/s");
    res.add("latency_p50_ms", median(lat), "ms");
    res.add("latency_tail_ms", percentile(lat, w.tail_pct()), "ms");
    res.add("frac_of_peak",
            static_cast<double>(facts.conv_flops) * ips / (peak * 1e9),
            "ratio");
    res.add("ok_frac",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          res.attempted, 1)),
            "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.note("fail_frac " +
             fmt(static_cast<double>(res.failed) /
                 static_cast<double>(std::max<std::uint64_t>(res.attempted, 1))) +
             "; latency_tail_ms is p" + fmt(w.tail_pct()) + " over " +
             std::to_string(lat.size()) + " forwards (>= " +
             std::to_string(w.min_samples) + " fixed), the calm " +
             std::to_string(calm.size()) + " of " +
             std::to_string(blocks.size()) + " blocks of " +
             std::to_string(kBlockForwards) +
             "; host CPU steal " + fmt(mean_of(steal, calm)) +
             " in those blocks, " +
             fmt(mean_of(steal, all_indices(steal.size()))) +
             " over all; FMA peak " + fmt(peak) + " GFLOP/s on " +
             std::to_string(probe_threads()) + " threads");
    return;
  }

  SpanLog spans;
  const double peak = add_platform_metrics(res);
  // Untraced and traced phases alternate (ABAB) so drift between them
  // cancels; traced = the benchmark's forward span plus per-conv
  // telemetry sinks. The median difference is the tracing overhead.
  std::vector<TelemetrySnapshot> sinks(g.conv_ops().size());
  auto set_sinks = [&](bool on) {
    for (std::size_t i = 0; i < sinks.size(); ++i)
      g.conv_ops()[i]->set_telemetry(on ? &sinks[i] : nullptr);
    (void)g.run(s.images[0]);  // re-pack after the sink swap
  };
  std::vector<double> plain, traced;
  for (int phase = 0; phase < 4; ++phase) {
    const bool on = phase % 2 == 1;
    if (phase > 0) set_sinks(on);
    std::vector<double>& lat = on ? traced : plain;
    for (const Block& b :
         closed_loop(s, seconds / 4, 1, res, on ? &spans : nullptr))
      lat.insert(lat.end(), b.lat_ms.begin(), b.lat_ms.end());
  }
  set_sinks(false);
  const double wall = median(plain);
  res.add("trace_overhead_frac", median(traced) / wall - 1.0, "ratio");
  add_graph_layer_metrics(g, s.images[0], s.refs[0], wall, peak, 3, spans,
                          res);
  add_zero_serve_metrics(res);
  const std::string path = out_dir + "/trace_" + w.name + ".json";
  res.check(spans.write_chrome_trace(path), "trace written to " + path);
  res.note("trace: " + path);
}

// ---------------------------------------------------------------------------
// Open-loop serving workload.
// ---------------------------------------------------------------------------

struct ServeRun {
  std::vector<double> lat_ms;         ///< served: done - due
  std::vector<double> queue_ms, exec_ms, respond_ms, lag_ms;
  std::uint64_t sent = 0, served = 0, on_time = 0, shed_admission = 0,
                shed_expired = 0, shed_other = 0, wrong = 0, errors = 0;
  double busy_ms = 0;  ///< served requests' shares of their batch's forward
  double steal = 0;  ///< host CPU steal share while the window's requests arrived

  void merge(const ServeRun& o) {
    for (auto [to, from] :
         {std::pair{&lat_ms, &o.lat_ms}, {&queue_ms, &o.queue_ms},
          {&exec_ms, &o.exec_ms}, {&respond_ms, &o.respond_ms},
          {&lag_ms, &o.lag_ms}})
      to->insert(to->end(), from->begin(), from->end());
    sent += o.sent;
    served += o.served;
    on_time += o.on_time;
    shed_admission += o.shed_admission;
    shed_expired += o.shed_expired;
    shed_other += o.shed_other;
    wrong += o.wrong;
    errors += o.errors;
    busy_ms += o.busy_ms;
  }
};

/// Poisson arrivals at kServeRateQps for `seconds`: one generator thread
/// submits on schedule, one collector thread resolves futures in order.
/// Returns one ServeRun per kServeWindowNs window of due times.
std::vector<ServeRun> open_loop(serve::Server& server,
                                const std::vector<Tensor>& images,
                                const std::vector<Tensor>& refs,
                                std::uint64_t seed, double seconds,
                                SpanLog* spans) {
  struct Pending {
    std::future<serve::ServeResult> fut;
    std::uint64_t due;
    std::size_t image;
    double lag_ms;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;

  std::mt19937_64 rng(seed ^ 0x5eed5eedULL);
  std::exponential_distribution<double> gap(kServeRateQps);
  std::vector<std::uint64_t> due;
  for (double t = gap(rng); t < seconds; t += gap(rng))
    due.push_back(static_cast<std::uint64_t>(t * 1e9));
  const std::size_t windows =
      static_cast<std::size_t>(std::ceil(seconds * 1e9 / kServeWindowNs));
  std::vector<ServeRun> runs(windows);
  // steal_at[k]: host steal counters when window k began (written by the
  // generator; the last entry when the final arrival was sent).
  std::vector<StealClock> steal_at(windows + 1);

  const std::uint64_t start = monotonic_ns() + 2'000'000;
  auto generate_arrivals = [&] {
    std::size_t window = 0;
    for (std::size_t i = 0; i < due.size(); ++i) {
      const std::uint64_t at = start + due[i];
      const std::uint64_t before = monotonic_ns();
      if (before < at)
        std::this_thread::sleep_for(std::chrono::nanoseconds(at - before));
      const std::uint64_t now = monotonic_ns();
      while (window <= due[i] / kServeWindowNs)
        steal_at[window++] = StealClock::now();
      const std::uint64_t late = now > at ? now - at : 0;
      const std::size_t img = i % images.size();
      const std::uint64_t budget =
          late < kServeDeadlineNs ? kServeDeadlineNs - late : 1;
      Pending p{server.submit(images[img].clone(), budget), at, img, ms(late)};
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
    }
    while (window <= windows) steal_at[window++] = StealClock::now();
  };
  bool generator_failed = false;  // written by the generator only
  std::thread generator([&] {
    try {
      generate_arrivals();
    } catch (const std::exception&) {
      generator_failed = true;
    }
    std::lock_guard<std::mutex> lk(mu);
    done = true;
    cv.notify_one();
  });
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      ServeRun& run = runs[std::min<std::size_t>(
          (p.due - start) / kServeWindowNs, windows - 1)];
      ++run.sent;
      run.lag_ms.push_back(p.lag_ms);
      try {
        const serve::ServeResult r = p.fut.get();
        const serve::ServeStats& st = r.stats;
        ++run.served;
        const double lat = ms(st.done_ns - p.due);
        run.lat_ms.push_back(lat);
        if (st.done_ns - p.due <= kServeDeadlineNs) ++run.on_time;
        const double e2e = ms(st.done_ns - st.arrival_ns);
        run.queue_ms.push_back(ms(st.queue_wait_ns));
        run.exec_ms.push_back(ms(st.measured_batch_ns));
        run.busy_ms += ms(st.measured_batch_ns) / std::max(1, st.batch_size);
        run.respond_ms.push_back(e2e - ms(st.queue_wait_ns) -
                                 ms(st.measured_batch_ns));
        if (!bitwise_equal(r.output, refs[p.image])) ++run.wrong;
        if (spans) {
          const auto req = static_cast<std::int64_t>(st.request_id);
          const int root = spans->add("bench.request", p.due, st.done_ns,
                                      SpanLog::kNoParent, req, st.batch_size);
          spans->add("bench.queue", st.arrival_ns, st.launch_ns, root, req,
                     st.batch_size);
          spans->add("bench.execute", st.launch_ns,
                     st.launch_ns + st.measured_batch_ns, root, req,
                     st.batch_size);
        }
      } catch (const serve::ShedError& e) {
        if (e.reason() == serve::ShedReason::kAdmission)
          ++run.shed_admission;
        else if (e.reason() == serve::ShedReason::kDeadlineExpired)
          ++run.shed_expired;
        else
          ++run.shed_other;
      } catch (const std::exception&) {
        ++run.errors;
      }
    }
  });
  generator.join();
  collector.join();
  if (generator_failed) ++runs.back().errors;
  for (std::size_t k = 0; k < windows; ++k)
    runs[k].steal = steal_at[k + 1].since(steal_at[k]);
  return runs;
}

ServeRun merge_windows(const std::vector<ServeRun>& windows,
                       const std::vector<std::size_t>& idx) {
  ServeRun r;
  for (std::size_t i : idx) r.merge(windows[i]);
  return r;
}

ServeRun merge_windows(const std::vector<ServeRun>& windows) {
  return merge_windows(windows, all_indices(windows.size()));
}

void run_serve(const Workload& w, std::uint64_t seed, double seconds,
              bool trace, const std::string& out_dir, Result& res) {
  auto factory = [&w](int batch) { return build_fp32(w, batch); };
  serve::ServerOptions opts;
  opts.name = "perfbench";
  opts.max_batch = kServeMaxBatch;
  opts.executors = 1;
  opts.default_deadline_ns = kServeDeadlineNs;

  std::vector<double> setup;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < (trace ? 1 : w.setup_reps); ++rep) {
    server.reset();
    const std::uint64_t t0 = monotonic_ns();
    server = std::make_unique<serve::Server>(factory, opts);
    while (!server->ready()) std::this_thread::yield();
    setup.push_back(static_cast<double>(monotonic_ns() - t0) / 1e9);
  }

  std::vector<Tensor> images, refs;
  std::unique_ptr<Graph> solo = factory(1);
  for (int i = 0; i < kServeImages; ++i) {
    images.push_back(make_image(w, seed, i));
    refs.push_back(solo->run(images.back()));
  }
  // Untimed warm bursts: the server builds its batch-2..4 graphs lazily
  // on first use. No deadline, so a partial batch launches at once.
  for (int burst = 0; burst < 4; ++burst) {
    std::vector<std::future<serve::ServeResult>> fs;
    for (int i = 0; i < kServeMaxBatch; ++i)
      fs.push_back(server->submit(images[static_cast<std::size_t>(i)].clone(),
                                  serve::kNeverNs));
    for (std::size_t i = 0; i < fs.size(); ++i)
      res.verify(bitwise_equal(fs[i].get().output, refs[i]),
                 "warm-up served slice matches its solo forward");
  }
  const GraphFacts facts = graph_facts(*solo, false);

  auto account = [&](const ServeRun& r) {
    res.attempted += r.sent;
    res.failed += r.wrong + r.errors;
  };

  if (!trace) {
    const double peak_before = fma_peak_gflops();
    const std::vector<ServeRun> windows =
        open_loop(*server, images, refs, seed, seconds, nullptr);
    const double peak = std::max(peak_before, fma_peak_gflops());
    account(merge_windows(windows));
    std::vector<double> steal;
    for (const ServeRun& win : windows) steal.push_back(win.steal);
    const std::vector<std::size_t> calm = calm_third(steal);
    const ServeRun r = merge_windows(windows, calm);
    // Rates are the offered rate times the share served (on time), so
    // the Poisson draw of the arrival count does not move them.
    const double sent = static_cast<double>(std::max<std::uint64_t>(r.sent, 1));
    const double served_rate =
        kServeRateQps * static_cast<double>(r.served) / sent;
    const double fail = static_cast<double>(r.shed_admission + r.shed_expired +
                                            r.shed_other + r.wrong + r.errors) /
                        sent;
    res.add("setup_s", median(setup), "s");
    res.add("images_per_s", served_rate, "1/s");
    res.add("goodput_qps",
            kServeRateQps * static_cast<double>(r.on_time) / sent, "1/s");
    res.add("latency_p50_ms", median(r.lat_ms), "ms");
    res.add("latency_tail_ms", percentile(r.lat_ms, w.tail_pct()), "ms");
    // Conv GFLOP/s while the server runs forwards: the served requests'
    // conv FLOPs over their shares of the batch forward time. The served
    // rate itself is set by the offered load, not by the engine.
    res.add("frac_of_peak",
            static_cast<double>(facts.conv_flops) *
                static_cast<double>(r.served) / (r.busy_ms * 1e6) / peak,
            "ratio");
    res.add("ok_frac", 1.0 - fail, "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.check(r.sent >= static_cast<std::uint64_t>(w.min_samples),
              "open loop sent >= " + std::to_string(w.min_samples) +
                  " requests");
    res.note("open loop: the calm " + std::to_string(calm.size()) + " of " +
             std::to_string(windows.size()) + " windows of " +
             fmt(ms(kServeWindowNs)) + " ms hold " + std::to_string(r.sent) +
             " requests at " + fmt(kServeRateQps) +
             " req/s offered, deadline " + fmt(ms(kServeDeadlineNs)) +
             " ms; served " +
             std::to_string(r.served) + ", shed admission " +
             std::to_string(r.shed_admission) + ", shed expired " +
             std::to_string(r.shed_expired) + "; fail_frac " +
             fmt(fail) + "; latency_tail_ms is p" +
             fmt(w.tail_pct()) + " over " +
             std::to_string(r.lat_ms.size()) +
             " served requests, timed from when each was due; generator "
             "lag p99 " +
             fmt(percentile(r.lag_ms, 99)) + " ms; host CPU steal " +
             fmt(mean_of(steal, calm)) + " in those windows, " +
             fmt(mean_of(steal, all_indices(steal.size()))) + " over all");
    server->shutdown(true);
    return;
  }

  SpanLog spans;
  const double peak = add_platform_metrics(res);
  // Both halves replay the same arrival schedule, so they differ only in
  // the tracing.
  const ServeRun plain = merge_windows(
      open_loop(*server, images, refs, seed, seconds / 2, nullptr));
  account(plain);
  const serve::ServerStatsSnapshot before = server->stats();
  const std::size_t records_before = server->batch_records().size();
  const ServeRun traced = merge_windows(
      open_loop(*server, images, refs, seed, seconds / 2, &spans));
  account(traced);
  const serve::ServerStatsSnapshot after = server->stats();
  const std::vector<serve::Server::BatchRecord> recs = server->batch_records();
  server->shutdown(true);

  res.add("trace_overhead_frac",
          median(traced.lat_ms) / median(plain.lat_ms) - 1.0, "ratio");
  const double submitted =
      static_cast<double>(std::max<std::uint64_t>(after.submitted -
                                                      before.submitted, 1));
  double pred = 0, meas = 0;
  for (std::size_t i = records_before; i < recs.size(); ++i) {
    pred += static_cast<double>(recs[i].predicted_ns);
    meas += static_cast<double>(recs[i].measured_ns);
  }
  res.add("serve.queue_wait_p50_ms", median(traced.queue_ms), "ms");
  res.add("serve.queue_wait_tail_ms", percentile(traced.queue_ms, w.tail_pct()),
          "ms");
  res.add("serve.execute_p50_ms", median(traced.exec_ms), "ms");
  res.add("serve.respond_ms", median(traced.respond_ms), "ms");
  res.add("serve.generator_lag_ms", percentile(traced.lag_ms, 99), "ms");
  const std::uint64_t batches = after.batches - before.batches;
  res.add("serve.mean_batch",
          batches ? static_cast<double>(after.batched_requests -
                                        before.batched_requests) /
                        static_cast<double>(batches)
                  : 0.0,
          "count");
  res.add("serve.shed_admission_frac",
          static_cast<double>(after.shed_admission - before.shed_admission) /
              submitted,
          "ratio");
  res.add("serve.shed_expired_frac",
          static_cast<double>(after.shed_expired - before.shed_expired) /
              submitted,
          "ratio");
  res.add("serve.deadline_miss_frac",
          static_cast<double>(after.deadline_misses - before.deadline_misses) /
              submitted,
          "ratio");
  res.add("serve.model_ratio", meas > 0 ? pred / meas : 0.0, "ratio");

  // The non-serving layers on the served model's batch-1 graph.
  std::vector<double> wall;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t t0 = monotonic_ns();
    (void)solo->run(images[0]);
    wall.push_back(ms(monotonic_ns() - t0));
  }
  add_graph_layer_metrics(*solo, images[0], refs[0], median(wall), peak, 10,
                          spans, res);
  const std::string path = out_dir + "/trace_" + w.name + ".json";
  res.check(spans.write_chrome_trace(path), "trace written to " + path);
  res.note("trace: " + path);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena, set before any thread allocates: with per-thread
  // arenas the peak RSS depended on which executor thread first touched
  // which activation, and came out in one of two modes ~20% apart.
  mallopt(M_ARENA_MAX, 1);
  std::string workload, out_dir = ".";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoll(v.c_str(), &end, 10);
      if (*end || seed < 0) usage(argv[0]);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end || !(seconds > 0 && seconds <= 120)) usage(argv[0]);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage(argv[0]);
      trace = v == "1";
    } else if (k == "--out-dir") {
      out_dir = v;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds < 0 || trace < 0) usage(argv[0]);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (workload == cand.name) w = &cand;
  if (w == nullptr) usage(argv[0]);

  Result res;
  try {
    const auto s = static_cast<std::uint64_t>(seed);
    if (w->kind == Kind::kServe)
      run_serve(*w, s, seconds, trace == 1, out_dir, res);
    else
      run_closed(*w, s, seconds, trace == 1, out_dir, res);
  } catch (const std::exception& e) {
    res.check(false, std::string("exception: ") + e.what());
  }
  res.print();
  return res.correct() ? 0 : 1;
}
