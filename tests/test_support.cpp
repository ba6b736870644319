// Unit tests for the support substrate: PRNG, bitset, strings, tables, CLI,
// thread pool, arena.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/arena.hpp"
#include "support/bitset.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/prng.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ais {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DiffersAcrossSeeds) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Prng, UniformStaysInRange) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = prng.uniform(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
}

TEST(Prng, UniformCoversRange) {
  Prng prng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(prng.uniform(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, Uniform01InHalfOpenInterval) {
  Prng prng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = prng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Prng prng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(prng.chance(0.0));
    EXPECT_TRUE(prng.chance(1.0));
  }
}

TEST(Prng, ShufflePreservesElements) {
  Prng prng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  prng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Prng, SplitProducesIndependentStream) {
  Prng a(5);
  Prng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(Bitset, SetTestReset) {
  DynamicBitset bits(130);
  EXPECT_TRUE(bits.none());
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset, UnionAndIntersection) {
  DynamicBitset a(70);
  DynamicBitset b(70);
  a.set(3);
  a.set(65);
  b.set(65);
  b.set(4);
  EXPECT_TRUE(a.intersects(b));
  a |= b;
  EXPECT_EQ(a.count(), 3u);
  DynamicBitset c(70);
  c.set(4);
  a &= c;
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(4));
}

TEST(Bitset, ForEachVisitsAscending) {
  DynamicBitset bits(200);
  bits.set(5);
  bits.set(100);
  bits.set(199);
  EXPECT_EQ(bits.to_indices(), (std::vector<std::size_t>{5, 100, 199}));
}

TEST(Str, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Str, SplitWsDropsEmpty) {
  EXPECT_EQ(split_ws("  a \t b  "), (std::vector<std::string>{"a", "b"}));
}

TEST(Str, JoinAndTrim) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_TRUE(starts_with("block foo", "block "));
  EXPECT_FALSE(starts_with("b", "block"));
}

TEST(Str, FmtDouble) { EXPECT_EQ(fmt_double(1.005, 1), "1.0"); }

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Cli, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--n", "12", "--p=0.5", "--flag"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_string("s", "dft"), "dft");
  EXPECT_TRUE(args.has("p"));
  EXPECT_FALSE(args.has("q"));
}

TEST(Cli, UnreadListsFlagsNoGetterAskedFor) {
  const char* argv[] = {"prog", "--n", "12", "--typo=1", "--flag",
                        "--old-knob", "3"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.unread(),
            (std::vector<std::string>{"flag", "n", "old-knob", "typo"}));
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get_string("missing", ""), "");  // absent: nothing to list
  EXPECT_EQ(args.unread(), (std::vector<std::string>{"old-knob", "typo"}));
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 1; i <= 100; ++i) {
      pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 5050);
    // The pool is reusable after wait_idle.
    pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor drains the queue
  EXPECT_EQ(sum.load(), 5051);
}

TEST(ThreadPool, ClampJobs) {
  EXPECT_GE(clamp_jobs(0), 1);
  EXPECT_GE(clamp_jobs(-3), 1);
  EXPECT_EQ(clamp_jobs(1), 1);
  EXPECT_EQ(clamp_jobs(7), 7);
}

TEST(ThreadPool, ClampJobsCountsTheAffinityMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(clamp_jobs(0), CPU_COUNT(&allowed));
  // Narrow this thread to one of its CPUs: "one per CPU" follows.
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(clamp_jobs(0), 1);
  EXPECT_EQ(clamp_jobs(3), 3);  // an explicit count is taken as given
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 4}) {
    constexpr std::size_t kN = 257;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    parallel_for(jobs, kN, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelFor, ZeroAndOneElementDegenerate) {
  int calls = 0;
  parallel_for(8, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(8, 1, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, TasksOverlapInTime) {
  // Two tasks that each wait for the other to start can only finish if the
  // pool genuinely runs them concurrently (a serial loop would deadlock the
  // first task; the generous timeout turns that into a visible failure).
  std::atomic<int> started{0};
  std::atomic<bool> both_seen{false};
  parallel_for(2, 2, [&](std::size_t) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 2) both_seen.store(true);
  });
  EXPECT_TRUE(both_seen.load());
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(256);
  auto* a = static_cast<std::uint8_t*>(arena.allocate(3, 1));
  auto* b = static_cast<std::uint64_t*>(arena.allocate(8, 8));
  auto* c = static_cast<std::uint8_t*>(arena.allocate(5, 1));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  // Writing through each pointer must not disturb the others.
  std::memset(a, 0xaa, 3);
  *b = 0x0123456789abcdefULL;
  std::memset(c, 0xcc, 5);
  EXPECT_EQ(a[0], 0xaa);
  EXPECT_EQ(*b, 0x0123456789abcdefULL);
  EXPECT_EQ(c[4], 0xcc);
  EXPECT_GE(arena.bytes_allocated(), 16u);
}

TEST(Arena, ZeroByteRequestYieldsValidPointer) {
  Arena arena;
  EXPECT_NE(arena.allocate(0, 1), nullptr);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena(64);
  auto* big = arena.alloc_array<std::uint8_t>(1000);
  std::memset(big, 0x5a, 1000);
  EXPECT_EQ(big[999], 0x5a);
  EXPECT_GE(arena.bytes_reserved(), 1000u);
  // The small-chunk bump path still works after an oversized detour.
  auto* small = arena.alloc_array<std::uint32_t>(4);
  small[3] = 7;
  EXPECT_EQ(small[3], 7u);
}

TEST(Arena, ResetRewindsWithoutReleasing) {
  Arena arena(128);
  for (int i = 0; i < 50; ++i) arena.allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  // Re-allocating up to the previous peak must not grow the backing memory.
  for (int i = 0; i < 50; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, ArenaVectorGrowsAndMoves) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[999], 999);
  ArenaVector<int> w{ArenaAllocator<int>(arena)};
  w = std::move(v);
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_EQ(w[500], 500);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/ais_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"x,y", "plain"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
}

}  // namespace
}  // namespace ais
