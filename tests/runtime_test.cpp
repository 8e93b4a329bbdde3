// Tests for the runtime substrate: aligned buffers, partitioning,
// thread pool, timers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/aligned_buffer.h"
#include "runtime/cpu_info.h"
#include "runtime/partition.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"

namespace ndirect {
namespace {

TEST(AlignedBuffer, AllocatesCacheLineAligned) {
  AlignedBuffer<float> buf(7);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes,
            0u);
  EXPECT_EQ(buf.size(), 7u);
}

TEST(AlignedBuffer, ZeroFill) {
  AlignedBuffer<float> buf(100);
  buf.fill_zero();
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<float> a(10);
  a[0] = 42.0f;
  float* p = a.data();
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42.0f);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, EnsureGrowsOnlyWhenNeeded) {
  AlignedBuffer<float> buf(16);
  float* p = buf.data();
  buf.ensure(8);
  EXPECT_EQ(buf.data(), p);  // no reallocation
  buf.ensure(32);
  EXPECT_GE(buf.size(), 32u);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  buf.fill_zero();  // must not crash
  AlignedBuffer<float> moved(std::move(buf));
  EXPECT_TRUE(moved.empty());
}

TEST(Partition, CoversRangeExactlyOnce) {
  for (std::size_t count : {0u, 1u, 7u, 64u, 100u, 1001u}) {
    for (std::size_t parts : {1u, 2u, 3u, 7u, 64u}) {
      std::vector<int> hits(count, 0);
      for (std::size_t i = 0; i < parts; ++i) {
        const Range r = partition_range(count, parts, i);
        for (std::size_t j = r.begin; j < r.end; ++j) ++hits[j];
      }
      for (std::size_t j = 0; j < count; ++j) {
        EXPECT_EQ(hits[j], 1) << "count=" << count << " parts=" << parts
                              << " j=" << j;
      }
    }
  }
}

TEST(Partition, ChunkSizesDifferByAtMostOne) {
  const Range r0 = partition_range(10, 3, 0);
  const Range r1 = partition_range(10, 3, 1);
  const Range r2 = partition_range(10, 3, 2);
  EXPECT_EQ(r0.size(), 4u);
  EXPECT_EQ(r1.size(), 3u);
  EXPECT_EQ(r2.size(), 3u);
  EXPECT_EQ(r0.begin, 0u);
  EXPECT_EQ(r2.end, 10u);
}

TEST(Partition, MorePartsThanWork) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    total += partition_range(3, 8, i).size();
  }
  EXPECT_EQ(total, 3u);
}

TEST(ThreadPool, RunExecutesEveryTaskOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run(100, [&](std::size_t tid) { hits[tid]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OversubscriptionRunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run(16, [&](std::size_t) { count++; });  // 8 tasks per thread
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  ThreadPool pool(3);
  std::vector<int> data(10007);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long long> sum{0};
  pool.parallel_for(data.size(), [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) local += data[i];
    sum += local;
  });
  EXPECT_EQ(sum.load(), 10007LL * 10006 / 2);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int> count{0};
    pool.run(8, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 8);
  }
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.run(5, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ZeroTasksIsNoOp) {
  ThreadPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL(); });
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, ConcurrentCallersSerializeSafely) {
  // Several caller threads share one pool; every task of every call
  // must run exactly once. Jobs occupy independent slots and execute
  // concurrently; each caller must see exactly its own job complete.
  ThreadPool pool(3);
  constexpr int kCallers = 4, kTasksPerCall = 25, kCallsPerCaller = 20;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        pool.run(kTasksPerCall, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kTasksPerCall * kCallsPerCaller);
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

// ----------------------------------------------------------------------
// Spin-then-park dispatch path
// ----------------------------------------------------------------------

TEST(ThreadPool, SpinBudgetConstructorOverride) {
  ThreadPool pool(2, 123);
  EXPECT_EQ(pool.spin_iters(), 123);
  std::atomic<int> count{0};
  pool.run(4, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, RepeatedSubMicrosecondDispatches) {
  // A stream of back-to-back tiny dispatches keeps workers inside their
  // spin window; every task must still run exactly once per call.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kCalls = 5000;
  for (int i = 0; i < kCalls; ++i) {
    pool.run(4, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 4L * kCalls);
}

TEST(ThreadPool, ParkedWorkersRewakeCorrectly) {
  // Let every worker exhaust its spin budget and park, then dispatch
  // again: the condvar fallback must wake them all.
  ThreadPool pool(3, 64);  // tiny budget so parking happens fast
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.run(3, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 3) << "round " << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(ThreadPool, ZeroSpinPoolParksImmediately) {
  // NDIRECT_POOL_SPIN=0 semantics: pure mutex+condvar operation (the
  // seed behaviour, kept as the A/B baseline) must stay correct.
  ThreadPool pool(3, 0);
  EXPECT_EQ(pool.spin_iters(), 0);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.run(6, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 6);
  }
}

TEST(ThreadPool, ConcurrentCallersWithTinyTasks) {
  // Multiple caller threads hammering one pool with sub-microsecond
  // tasks: slot arm/retire churns fast, and tasks must never be lost
  // or run twice. (The TSan tier exercises the atomic handshake here.)
  ThreadPool pool(2);
  constexpr int kCallers = 4, kCallsPerCaller = 300;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerCaller; ++i) {
        pool.run(3, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 3L * kCallers * kCallsPerCaller);
}

TEST(ThreadPool, OversubscribedConcurrentCallers) {
  // num_tasks > size() from several callers at once: round-robin
  // stacking and dispatch serialization must compose.
  ThreadPool pool(2, 256);
  constexpr int kCallers = 3, kTasks = 16, kCalls = 50;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        pool.run(kTasks, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), long{kCallers} * kTasks * kCalls);
}

TEST(ThreadPool, EveryTaskIndexDeliveredExactlyOnce) {
  // The dispatch contract: fn(tid) for every tid in [0, n) exactly
  // once, with tid -> OS-thread placement unspecified (tasks are
  // claimed dynamically so concurrent jobs can share the workers).
  ThreadPool pool(2);
  std::array<std::atomic<int>, 8> hits{};
  pool.run(8, [&](std::size_t tid) { hits[tid]++; });
  for (std::size_t tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(hits[tid].load(), 1) << "tid " << tid;
  }
}

TEST(ThreadPool, ConcurrentJobsOverlapInTime) {
  // The re-entrant dispatch must let two callers' jobs execute
  // CONCURRENTLY: job A's tasks block until job B has started running,
  // which can only finish if B's tasks run while A still occupies its
  // slot. (With serializing dispatch this deadlocks; the short poll
  // bounds the failure to a test timeout, not a hang.)
  ThreadPool pool(2);
  std::atomic<bool> b_started{false};
  std::thread caller_a([&] {
    pool.run(2, [&](std::size_t) {
      for (int i = 0; i < 200000 && !b_started.load(); ++i) {
        std::this_thread::yield();
      }
    });
  });
  std::thread caller_b([&] {
    pool.run(2, [&](std::size_t) { b_started.store(true); });
  });
  caller_a.join();
  caller_b.join();
  EXPECT_TRUE(b_started.load());
}

TEST(ThreadPool, NestedRunFromInsideTask) {
  // A task that itself dispatches on the same pool (a grouped conv's
  // inner conv, a graph op calling parallel_for): the nested run()
  // grabs its own job slot and the submitter self-drains, so this can
  // never deadlock and every nested task runs exactly once.
  ThreadPool pool(3);
  std::atomic<int> outer{0}, inner{0};
  pool.run(3, [&](std::size_t) {
    outer++;
    pool.run(4, [&](std::size_t) { inner++; });
  });
  EXPECT_EQ(outer.load(), 3);
  EXPECT_EQ(inner.load(), 3 * 4);
}

TEST(ThreadPool, SlotExhaustionFallsBackInline) {
  // More concurrent callers than job slots: the surplus callers must
  // execute inline (correct, just unshared) instead of failing.
  ThreadPool pool(2);
  constexpr int kCallers = ThreadPool::kMaxConcurrentJobs + 4;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        pool.run(5, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * 50 * 5);
}

// ----------------------------------------------------------------------
// Scratch arena
// ----------------------------------------------------------------------

TEST(ScratchArena, GrowOnlyAndStablePointers) {
  ScratchArena arena;
  float* p = arena.floats(ScratchSlot::kPack, 100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes, 0u);
  const std::uint64_t grows = arena.grow_count();
  // Smaller or equal requests reuse the same storage without growth.
  EXPECT_EQ(arena.floats(ScratchSlot::kPack, 50), p);
  EXPECT_EQ(arena.floats(ScratchSlot::kPack, 100), p);
  EXPECT_EQ(arena.grow_count(), grows);
  // A larger request grows exactly once.
  float* q = arena.floats(ScratchSlot::kPack, 200);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(arena.grow_count(), grows + 1);
}

TEST(ScratchArena, SlotsAreIndependent) {
  ScratchArena arena;
  float* a = arena.floats(ScratchSlot::kPack, 64);
  float* b = arena.floats(ScratchSlot::kFilterTile, 64);
  ASSERT_NE(a, b);
  a[0] = 1.0f;
  b[0] = 2.0f;
  // Re-requesting either slot must not disturb the other.
  EXPECT_EQ(arena.floats(ScratchSlot::kPack, 32), a);
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 2.0f);
}

TEST(ScratchArena, NamespacesNeverAlias) {
  // Namespace ns isolates a nested engine invocation's buffers from the
  // outer one's on the same thread (re-entrant pool dispatch).
  ScratchArena arena;
  float* outer = arena.floats(0, ScratchSlot::kPack, 64);
  float* inner = arena.floats(1, ScratchSlot::kPack, 64);
  ASSERT_NE(outer, inner);
  outer[0] = 1.0f;
  inner[0] = 2.0f;
  EXPECT_EQ(arena.floats(0, ScratchSlot::kPack, 64), outer);
  EXPECT_EQ(arena.floats(1, ScratchSlot::kPack, 64), inner);
  EXPECT_EQ(outer[0], 1.0f);
  EXPECT_EQ(inner[0], 2.0f);
  // The 2-arg overload is namespace 0.
  EXPECT_EQ(arena.floats(ScratchSlot::kPack, 32), outer);
}

TEST(ScratchArena, DepthGuardTracksNesting) {
  const ScratchDepth d0;
  EXPECT_EQ(d0.level(), 0);
  {
    const ScratchDepth d1;
    EXPECT_EQ(d1.level(), 1);
    const ScratchDepth d2;
    EXPECT_EQ(d2.level(), 2);
  }
  const ScratchDepth d1_again;
  EXPECT_EQ(d1_again.level(), 1);
}

TEST(ScratchArena, ReleaseFreesAndReallocates) {
  ScratchArena arena;
  arena.floats(ScratchSlot::kAux0, 128);
  EXPECT_GT(arena.capacity_bytes(), 0u);
  arena.release();
  EXPECT_EQ(arena.capacity_bytes(), 0u);
  EXPECT_NE(arena.floats(ScratchSlot::kAux0, 16), nullptr);
}

TEST(ScratchArena, ThreadLocalInstancesAreDistinct) {
  ScratchArena* main_arena = &this_thread_scratch();
  EXPECT_EQ(main_arena, &this_thread_scratch());  // stable per thread
  ScratchArena* other_arena = nullptr;
  std::thread t([&] { other_arena = &this_thread_scratch(); });
  t.join();
  EXPECT_NE(main_arena, other_arena);
}

TEST(ScratchArena, GlobalGrowCounterTracksGrowth) {
  ScratchArena arena;
  const std::uint64_t before = scratch_grow_events();
  arena.floats(ScratchSlot::kAux1, 4096);
  EXPECT_GT(scratch_grow_events(), before);
  // Reuse does not move the global counter from this arena.
  const std::uint64_t warm = scratch_grow_events();
  arena.floats(ScratchSlot::kAux1, 4096);
  EXPECT_EQ(arena.grow_count(), 1u);
  EXPECT_GE(scratch_grow_events(), warm);  // other threads may grow
}

TEST(Timer, MeasuresMonotonicallyIncreasingTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double first = t.seconds();
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double second = t.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(PhaseTimer, AccumulatesAndNormalizes) {
  PhaseTimer pt;
  pt.add("a", 1.0);
  pt.add("b", 3.0);
  pt.add("a", 1.0);
  EXPECT_DOUBLE_EQ(pt.seconds("a"), 2.0);
  EXPECT_DOUBLE_EQ(pt.seconds("b"), 3.0);
  EXPECT_DOUBLE_EQ(pt.total(), 5.0);
  EXPECT_DOUBLE_EQ(pt.fraction("a"), 0.4);
  EXPECT_DOUBLE_EQ(pt.fraction("missing"), 0.0);
  pt.clear();
  EXPECT_DOUBLE_EQ(pt.total(), 0.0);
}

TEST(PhaseTimer, ScopeAddsElapsedTime) {
  PhaseTimer pt;
  {
    auto scope = pt.scope("work");
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  EXPECT_GT(pt.seconds("work"), 0.0);
}

TEST(CpuInfo, ProbeReturnsSaneValues) {
  const CpuInfo info = probe_host_cpu();
  EXPECT_GE(info.logical_cores, 1);
  EXPECT_GE(info.cache.l1d, 4u * 1024);
  EXPECT_GE(info.cache.l2, info.cache.l1d);
}

}  // namespace
}  // namespace ndirect
