// The dtype-independent half of the conv engines' loop nest: one
// driver that dispatches the PTn x PTk worker grid of Section 6 on the
// engine's pool, claims macro-tiles from the locality-aware
// TileScheduler, hands each worker its scratch buffers, and owns all of
// a run's observability (per-worker phase split, PMU deltas, tile trace
// spans, scheduler stats, the telemetry snapshot). An engine supplies
// only the tile body: what one claimed (row, col) tile computes. The
// fp32 NdirectConv body is Algorithm 2's L2-L7 loops; the int8 Int8Conv
// body is the XOR window pack, the dot kernels and the compensation
// epilogue.
//
// The body is a template parameter, not a std::function, and the
// worker is instantiated once per collect flag: with collection off the
// tile loop carries no timer reads, branches or TraceSession code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/perf_counters.h"
#include "runtime/scratch.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"
#include "runtime/trace.h"
#include "runtime/work_queue.h"

namespace ndirect {

/// One run's tile grid, its seed mapping, and where its observability
/// goes.
struct TileRun {
  int rows = 0, cols = 0;            ///< the macro-tile grid
  int row_parts = 1, col_parts = 1;  ///< seed worker grid (PTn x PTk)
  /// Tasks dispatched; those beyond row_parts * col_parts seed empty
  /// and only steal.
  int workers = 1;
  bool stealing = true;
  /// Floats of the two per-worker scratch buffers (ScratchSlot::kPack
  /// and kFilterTile of the calling thread's arena); 0 = not needed.
  std::size_t scratch_floats[2] = {0, 0};
  /// Packed-filter cache hits serving this run, recorded on worker 0.
  std::uint64_t cache_hits = 0;
  const char* span = "conv.run";  ///< trace span around the dispatch
  ThreadPool* pool = nullptr;     ///< nullptr = ThreadPool::global()
  TelemetrySnapshot* telemetry = nullptr;  ///< see NdirectOptions
  SchedulerStats* sched_stats = nullptr;   ///< see NdirectOptions
};

/// A worker's state as the tile body sees it: its scratch buffers and
/// phase accumulators, flushed to its telemetry slot once when it runs
/// out of tiles (no shared writes inside the tile loop). The timing
/// helpers run `f` bare when kCollect is false.
template <bool kCollect>
struct TileWorker {
  float* scratch[2] = {nullptr, nullptr};
  std::uint64_t pack_ns = 0, transform_ns = 0, micro_ns = 0;
  /// Micro-kernel calls that fell through to a generic kernel.
  std::uint64_t generic_calls = 0;
  /// PMU phase mode (2): L1D misses sampled around pack() calls.
  PmuThreadCounters* pack_pmu = nullptr;
  std::uint64_t pack_l1d = 0;

  template <typename F>
  void pack(F&& f) {
    if constexpr (kCollect) {
      // The L1D reads sit outside the timer window so the pack/micro
      // nanosecond split stays clean.
      std::uint64_t l1d0 = 0;
      if (pack_pmu != nullptr)
        l1d0 = pack_pmu->read().value(PmuEvent::kL1DMisses);
      timed(pack_ns, f);
      if (pack_pmu != nullptr) {
        const std::uint64_t l1d1 =
            pack_pmu->read().value(PmuEvent::kL1DMisses);
        if (l1d1 > l1d0) pack_l1d += l1d1 - l1d0;
      }
    } else {
      f();
    }
  }
  template <typename F>
  void transform(F&& f) {
    timed(transform_ns, f);
  }
  template <typename F>
  void micro(F&& f) {
    timed(micro_ns, f);
  }

 private:
  template <typename F>
  static void timed(std::uint64_t& acc, F& f) {
    if constexpr (kCollect) {
      const std::uint64_t t0 = monotonic_ns();
      f();
      acc += monotonic_ns() - t0;
    } else {
      f();
    }
  }
};

/// Run `body(worker, row, col)` once for every tile of `run`'s grid.
/// Worker (tn, tk) is seeded with exactly the tiles its Eq. 5/6 slice
/// covers; with `stealing` an exhausted worker then takes unfinished
/// tiles, nearest in the grid first. Tiles must own disjoint outputs,
/// so the claim order cannot change results.
template <typename Body>
void drive_tiles(const TileRun& run, Body&& body) {
  ThreadPool& pool = run.pool != nullptr ? *run.pool : ThreadPool::global();
  // Collection stays off unless someone will consume it (a sink or a
  // live trace session).
  const bool tracing = trace_on();
  const bool collect =
      telemetry_enabled() && (run.telemetry != nullptr || tracing);
  WorkerTelemetry tel(collect ? run.workers : 0);
  // Hardware-counter mode: 0 off, 1 per-task group deltas, 2 also
  // attributes L1D misses to the pack phase. Rides the collect flag and
  // degrades to 0 where perf_event_open is unavailable.
  const int pmu =
      collect && pmu_mode() > 0 && pmu_available() ? pmu_mode() : 0;
  TileScheduler sched(run.rows, run.cols, run.row_parts, run.col_parts,
                      run.workers, run.stealing);

  auto worker = [&]<bool kCollect>(std::size_t tid) {
    TileWorker<kCollect> w;
    // PMU: one group read at task start/end gives this worker's deltas
    // (the task runs on one OS thread, whose thread-local group scopes
    // the counts to it).
    PmuSample pmu_t0;
    PmuThreadCounters* pc = nullptr;
    if constexpr (kCollect) {
      if (pmu > 0) {
        PmuThreadCounters& counters = this_thread_pmu();
        if (counters.open()) {
          pc = &counters;
          pmu_t0 = counters.read();
          if (pmu == 2) w.pack_pmu = pc;
        }
      }
    }
    // Scratch from this OS thread's persistent arena, acquired before
    // claiming so every worker warms its arena on the first call even if
    // stealing hands it a different tile set next run (steady state: no
    // heap allocation). The namespace is this task's nesting level: if
    // the thread is already inside another conv (a task that dispatched
    // on the re-entrant pool), the outer buffers live in a lower
    // namespace and cannot be clobbered here.
    const ScratchDepth depth;
    ScratchArena& arena = this_thread_scratch();
    constexpr ScratchSlot kSlots[2] = {ScratchSlot::kPack,
                                       ScratchSlot::kFilterTile};
    for (int i = 0; i < 2; ++i) {
      if (run.scratch_floats[i] > 0)
        w.scratch[i] =
            arena.floats(depth.level(), kSlots[i], run.scratch_floats[i]);
    }

    int row, col;
    while (sched.claim(static_cast<int>(tid), &row, &col)) {
      std::uint64_t tile_t0 = 0;
      if constexpr (kCollect)
        tile_t0 = tracing ? TraceSession::global().now_ns() : 0;
      body(w, row, col);
      if constexpr (kCollect) {
        if (tracing) {
          TraceSession& tr = TraceSession::global();
          tr.complete("tile", tile_t0, tr.now_ns() - tile_t0, "row", row,
                      "k", col);
        }
      }
    }
    if constexpr (kCollect) {
      const int wi = static_cast<int>(tid);
      tel.add(wi, Counter::kPackNs, w.pack_ns);
      tel.add(wi, Counter::kTransformNs, w.transform_ns);
      tel.add(wi, Counter::kMicrokernelNs, w.micro_ns);
      tel.add(wi, Counter::kGenericFallback, w.generic_calls);
      if (pc != nullptr) {
        const PmuSample d = pmu_delta(pmu_t0, pc->read());
        if (d.valid) {
          tel.add(wi, Counter::kPmuCycles, d.value(PmuEvent::kCycles));
          tel.add(wi, Counter::kPmuInstructions,
                  d.value(PmuEvent::kInstructions));
          tel.add(wi, Counter::kPmuL1DMisses,
                  d.value(PmuEvent::kL1DMisses));
          tel.add(wi, Counter::kPmuLLCMisses,
                  d.value(PmuEvent::kLLCMisses));
          tel.add(wi, Counter::kPmuStalledCycles,
                  d.value(PmuEvent::kStalledCycles));
          if (pmu == 2) {
            // The pack samples and the task delta come from the same
            // group, so pack <= task holds up to multiplex rounding;
            // clamp so micro = task - pack never underflows.
            const std::uint64_t task_l1d = d.value(PmuEvent::kL1DMisses);
            const std::uint64_t pack_part =
                w.pack_l1d < task_l1d ? w.pack_l1d : task_l1d;
            tel.add(wi, Counter::kPmuPackL1DMisses, pack_part);
            tel.add(wi, Counter::kPmuMicroL1DMisses, task_l1d - pack_part);
          }
          if (tracing) {
            TraceSession::global().counter(
                "pmu", "l1d_misses",
                static_cast<std::int64_t>(d.value(PmuEvent::kL1DMisses)),
                "llc_misses",
                static_cast<std::int64_t>(d.value(PmuEvent::kLLCMisses)));
          }
        }
      }
    }
  };

  WallTimer run_timer;
  if (tracing) TraceSession::global().begin(run.span, "workers", run.workers);
  if (collect) {
    pool.run(static_cast<std::size_t>(run.workers), [&](std::size_t t) {
      worker.template operator()<true>(t);
    });
  } else {
    pool.run(static_cast<std::size_t>(run.workers), [&](std::size_t t) {
      worker.template operator()<false>(t);
    });
  }
  if (tracing) TraceSession::global().end(run.span);
  if (run.sched_stats != nullptr) *run.sched_stats = sched.stats();
  if (collect) {
    tel.add(0, Counter::kCacheHits, run.cache_hits);
    TelemetrySnapshot snap = tel.snapshot(run_timer.seconds());
    // Claim/steal attribution comes straight from the scheduler's
    // per-worker counters (written by each worker's own claims, read
    // after the dispatch join).
    for (int wi = 0; wi < run.workers; ++wi) {
      TelemetrySnapshot::Worker& r = snap.workers[static_cast<std::size_t>(wi)];
      r.v[static_cast<int>(Counter::kTilesClaimed)] =
          sched.worker_executed(wi);
      r.v[static_cast<int>(Counter::kLocalSteals)] =
          sched.worker_steals(wi, StealClass::kLocal);
      r.v[static_cast<int>(Counter::kNeighbourSteals)] =
          sched.worker_steals(wi, StealClass::kNeighbour);
      r.v[static_cast<int>(Counter::kGlobalSteals)] =
          sched.worker_steals(wi, StealClass::kGlobal);
    }
    if (run.telemetry != nullptr) *run.telemetry = std::move(snap);
  } else if (run.telemetry != nullptr) {
    // Disabled collection must not leave a stale previous snapshot.
    *run.telemetry = TelemetrySnapshot{};
  }
}

}  // namespace ndirect
