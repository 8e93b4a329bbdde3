// Serve ResNet-50 through the dynamic-batching server: a burst of
// single-image requests with mixed deadline budgets is coalesced into
// batches sized by the latency model, tight-deadline stragglers are
// load-shed instead of blocking everyone behind them, and every result
// carries its own queueing/batching telemetry.
//
// The server also feeds the live metrics plane (DESIGN.md §16): every
// request updates named registry instruments, and the tail of the run
// prints the server's OpenMetrics exposition. To scrape it while the
// server runs, start it with --admin-port (below) and GET /metrics.
//
// With --admin-port=N the process mounts the HTTP admin plane
// (DESIGN.md §17) and serves /metrics, /healthz, /readyz, /slo,
// /report and the trace endpoints while traffic runs; --run-ms=N keeps
// a continuous load loop going that long so there is something live to
// scrape. SIGTERM/SIGINT then drain gracefully through the exit-hook
// chain.
//
//   $ ./examples/serve_resnet            # reduced model, fast
//   $ NDIRECT_EXAMPLE_FULL=1 ./examples/serve_resnet
//   $ ./examples/serve_resnet --admin-port=9900 --run-ms=30000 &
//   $ curl -s localhost:9900/metrics | head
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "nn/models.h"
#include "runtime/env.h"
#include "runtime/shutdown.h"
#include "serve/admin.h"
#include "serve/serve_report.h"
#include "serve/server.h"
#include "tensor/rng.h"

using namespace ndirect;
using namespace ndirect::serve;

int main(int argc, char** argv) {
  long admin_port = -1;
  long run_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--admin-port=", 0) == 0) {
      admin_port = std::strtol(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--run-ms=", 0) == 0) {
      run_ms = std::strtol(arg.c_str() + 9, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--admin-port=N] [--run-ms=N]\n", argv[0]);
      return 2;
    }
  }
  if (admin_port >= 0) {
    AdminOptions aopts;
    aopts.port = static_cast<int>(admin_port);
    AdminServer::global().start(aopts);
    install_signal_shutdown();
    std::printf("admin plane on 127.0.0.1:%d "
                "(/metrics /healthz /readyz /slo /report /trace/*)\n",
                AdminServer::global().port());
  }

  const bool full = env_flag("NDIRECT_EXAMPLE_FULL");
  ModelOptions mopts;
  mopts.channel_divisor = full ? 1 : 8;
  mopts.image_size = full ? 224 : 64;

  // The factory must be pure in `batch`: same seed, same weights at
  // every batch size, so coalescing requests never changes results.
  auto factory = [mopts](int batch) {
    return build_resnet50(batch, mopts);
  };

  ServerOptions opts;
  opts.name = "resnet50";  // the {server="resnet50"} label on every
                           // instrument this server registers
  opts.max_batch = 4;
  opts.slo.target_p99_ns = 2'000'000'000;  // watchdog: p99 <= 2 s
  opts.default_deadline_ns = 2'000'000'000;  // 2 s: roomy
  // Without a linger cap, a lone request with a roomy deadline waits
  // for batch-mates until its deadline horizon even on an idle server.
  // Cap it: launch at most 5 ms after the head request arrives.
  opts.max_linger_ns = 5'000'000;
  std::printf("starting server (ResNet-50, channels/%d, %dx%d input, "
              "max_batch %d)...\n",
              mopts.channel_divisor, mopts.image_size, mopts.image_size,
              opts.max_batch);
  Server server(factory, opts);

  // A burst of requests: most with the roomy default deadline, every
  // fourth with a 1 us budget that cannot possibly be met — admission
  // rejects those on arrival instead of letting them rot in the queue.
  const int n = 12;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < n; ++i) {
    Tensor image = make_input_nchw(1, 3, mopts.image_size,
                                   mopts.image_size);
    fill_random(image, 100 + static_cast<std::uint64_t>(i));
    futures.push_back(i % 4 == 3
                          ? server.submit(std::move(image), 1'000)
                          : server.submit(std::move(image)));
  }

  std::printf("\n%-4s %-9s %7s %10s %10s %6s\n", "req", "outcome",
              "batch", "queue_ms", "total_ms", "on_time");
  for (int i = 0; i < n; ++i) {
    try {
      const ServeResult r = futures[static_cast<std::size_t>(i)].get();
      std::printf(
          "%-4llu %-9s %7d %10.2f %10.2f %6s\n",
          static_cast<unsigned long long>(r.stats.request_id), "served",
          r.stats.batch_size,
          static_cast<double>(r.stats.queue_wait_ns) / 1e6,
          static_cast<double>(r.stats.done_ns - r.stats.arrival_ns) / 1e6,
          r.stats.deadline_slack_ns >= 0 ? "yes" : "LATE");
    } catch (const ShedError& e) {
      std::printf("%-4d shed: %s\n", i, shed_reason_name(e.reason()));
    }
  }

  if (run_ms > 0) {
    // Continuous load so the admin endpoints have live traffic to
    // report on; a bounded in-flight window applies backpressure.
    std::printf("\nserving continuous traffic for %ld ms...\n", run_ms);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(run_ms);
    std::deque<std::future<ServeResult>> inflight;
    unsigned long long sent = 0, done = 0, shed = 0;
    std::uint64_t seed = 1000;
    const auto harvest = [&](std::future<ServeResult>& f) {
      try {
        (void)f.get();
        ++done;
      } catch (const ShedError&) {
        ++shed;
      }
    };
    while (std::chrono::steady_clock::now() < until) {
      Tensor image = make_input_nchw(1, 3, mopts.image_size,
                                     mopts.image_size);
      fill_random(image, seed++);
      inflight.push_back(server.submit(std::move(image)));
      ++sent;
      while (inflight.size() >= 16) {
        harvest(inflight.front());
        inflight.pop_front();
      }
    }
    for (std::future<ServeResult>& f : inflight) harvest(f);
    std::printf("continuous load: %llu submitted, %llu served, "
                "%llu shed\n",
                sent, done, shed);
  }

  server.shutdown();
  std::printf("\n%s", build_serve_report(server).to_text().c_str());

  // The same run as a scraper sees it: this server's slice of the
  // process-wide OpenMetrics exposition (histograms elided for width —
  // a real scrape keeps them).
  std::printf("\nlive metrics excerpt (Server::metrics_text()):\n");
  std::istringstream lines(server.metrics_text());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("server=\"resnet50\"") == std::string::npos ||
        line.find("_bucket{") != std::string::npos)
      continue;
    std::printf("  %s\n", line.c_str());
  }
  return 0;
}
