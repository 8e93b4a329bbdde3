#include "runtime/metrics.h"

#include <stdexcept>

#include "runtime/trace.h"

namespace ndirect {

namespace {

/// OpenMetrics escaping for label values and help text: backslash,
/// double quote and newline get backslash escapes; other control
/// bytes are dropped.
std::string escape_text(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
  }
  return out;
}

bool labels_equal(const MetricLabels& a, const MetricLabels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].key != b[i].key || a[i].value != b[i].value) return false;
  return true;
}

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (int b = 0; b < HistogramLayout::kBuckets; ++b)
    counts[b] += other.counts[b];
  count += other.count;
  sum += other.sum;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target value, 1-based: ceil(q * count), at least 1.
  const double scaled = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(scaled);
  if (static_cast<double>(rank) < scaled) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < HistogramLayout::kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) return HistogramLayout::upper_bound(b);
  }
  return HistogramLayout::upper_bound(HistogramLayout::kOverflowBucket);
}

HistogramSnapshot HistogramCell::snapshot() const {
  HistogramSnapshot snap;
  for (int b = 0; b < HistogramLayout::kBuckets; ++b) {
    snap.counts[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += snap.counts[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: instrument handles cached by static-duration owners must
  // stay valid through static destruction (same policy as the trace
  // lane registry).
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

MetricsRegistry::Instrument* MetricsRegistry::find_or_create(
    const std::string& name, MetricLabels&& labels,
    const std::string& help, Kind kind) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& ins : instruments_) {
    if (ins->name == name && labels_equal(ins->labels, labels)) {
      if (ins->kind != kind)
        throw std::logic_error(
            "MetricsRegistry: instrument '" + name +
            "' re-registered with a different kind");
      return ins.get();
    }
  }
  auto ins = std::make_unique<Instrument>();
  ins->name = name;
  ins->labels = std::move(labels);
  ins->help = help;
  ins->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      ins->counter = std::make_unique<CounterCell>();
      break;
    case Kind::kGauge:
      ins->gauge = std::make_unique<GaugeCell>();
      break;
    case Kind::kHistogram:
      ins->histogram = std::make_unique<HistogramCell>();
      break;
  }
  instruments_.push_back(std::move(ins));
  return instruments_.back().get();
}

CounterCell* MetricsRegistry::counter(const std::string& name,
                                      MetricLabels labels,
                                      const std::string& help) {
  return find_or_create(name, std::move(labels), help, Kind::kCounter)
      ->counter.get();
}

GaugeCell* MetricsRegistry::gauge(const std::string& name,
                                  MetricLabels labels,
                                  const std::string& help) {
  return find_or_create(name, std::move(labels), help, Kind::kGauge)
      ->gauge.get();
}

HistogramCell* MetricsRegistry::histogram(const std::string& name,
                                          MetricLabels labels,
                                          const std::string& help) {
  return find_or_create(name, std::move(labels), help, Kind::kHistogram)
      ->histogram.get();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return instruments_.size();
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& ins : instruments_) {
    switch (ins->kind) {
      case Kind::kCounter:
        ins->counter->reset();
        break;
      case Kind::kGauge:
        ins->gauge->reset();
        break;
      case Kind::kHistogram:
        ins->histogram->reset();
        break;
    }
  }
}

std::string format_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += escape_text(labels[i].key) + "=\"" +
           escape_text(labels[i].value) + "\"";
  }
  out += "}";
  return out;
}

namespace {

/// Labels with one extra `le` pair appended (histogram bucket lines).
std::string bucket_labels(const MetricLabels& labels,
                          const std::string& le) {
  MetricLabels with = labels;
  with.push_back({"le", le});
  return format_labels(with);
}

}  // namespace

std::string MetricsRegistry::text() const {
  // The global exposition describes the observability plane itself:
  // refresh the self-gauges before rendering, so every scrape carries
  // a current trace-ring drop count and instrument census. Must happen
  // before mu_ is taken (gauge() registers under it), and only for the
  // global registry — private test registries stay untouched.
  if (this == &global()) {
    MetricsRegistry& g = global();
    GaugeCell* dropped = g.gauge(
        "ndirect_trace_dropped_events", {},
        "Trace events lost to a full ring in the global trace session");
    GaugeCell* instruments = g.gauge(
        "ndirect_metrics_instruments", {},
        "Instruments registered in the global metrics registry");
    dropped->set(
        static_cast<std::int64_t>(TraceSession::global().dropped()));
    instruments->set(static_cast<std::int64_t>(g.size()));
  }
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  // One family block per metric name, in first-registration order;
  // every sample of a family (one per label set) stays inside its
  // block as OpenMetrics requires.
  std::vector<const Instrument*> ordered;
  ordered.reserve(instruments_.size());
  for (const auto& ins : instruments_) ordered.push_back(ins.get());

  std::vector<bool> emitted(ordered.size(), false);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (emitted[i]) continue;
    const Instrument& head = *ordered[i];
    const char* type = head.kind == Kind::kCounter     ? "counter"
                       : head.kind == Kind::kGauge     ? "gauge"
                                                       : "histogram";
    if (!head.help.empty())
      out += "# HELP " + head.name + " " + escape_text(head.help) + "\n";
    out += "# TYPE " + head.name + " " + std::string(type) + "\n";
    for (std::size_t j = i; j < ordered.size(); ++j) {
      if (emitted[j] || ordered[j]->name != head.name) continue;
      emitted[j] = true;
      const Instrument& ins = *ordered[j];
      const std::string labels = format_labels(ins.labels);
      switch (ins.kind) {
        case Kind::kCounter:
          out += ins.name + "_total" + labels + " " +
                 std::to_string(ins.counter->value()) + "\n";
          break;
        case Kind::kGauge:
          out += ins.name + labels + " " +
                 std::to_string(ins.gauge->value()) + "\n";
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = ins.histogram->snapshot();
          std::uint64_t cum = 0;
          // Only the non-empty buckets are emitted (cumulative counts
          // stay monotone on the sparse support); the overflow bucket
          // is folded into the mandatory +Inf line below.
          for (int b = 0; b < HistogramLayout::kOverflowBucket; ++b) {
            if (snap.counts[b] == 0) continue;
            cum += snap.counts[b];
            out += ins.name + "_bucket" +
                   bucket_labels(
                       ins.labels,
                       std::to_string(HistogramLayout::upper_bound(b))) +
                   " " + std::to_string(cum) + "\n";
          }
          out += ins.name + "_bucket" +
                 bucket_labels(ins.labels, "+Inf") + " " +
                 std::to_string(snap.count) + "\n";
          out += ins.name + "_count" + labels + " " +
                 std::to_string(snap.count) + "\n";
          out += ins.name + "_sum" + labels + " " +
                 std::to_string(snap.sum) + "\n";
          break;
        }
      }
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace ndirect
