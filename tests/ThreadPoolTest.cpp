//===- tests/ThreadPoolTest.cpp - Work-queue thread pool ------------------===//
//
// The determinism contract of support/ThreadPool.h: every index runs
// exactly once, exceptions surface deterministically (lowest index wins),
// nested sections degrade to serial execution instead of deadlocking, and
// a concurrency-1 pool gives the same results as any other width.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

using namespace alp;

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  // Each index is written by exactly one task, so plain ints suffice.
  std::vector<int> Counts(2000, 0);
  Pool.parallelFor(Counts.size(), [&](size_t I) { Counts[I] += 1; });
  for (size_t I = 0; I != Counts.size(); ++I)
    ASSERT_EQ(Counts[I], 1) << "index " << I;
}

TEST(ThreadPoolTest, EmptyAndSingleIndexSections) {
  ThreadPool Pool(3);
  unsigned Calls = 0;
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool Pool(4);
  // Indices 3, 10, 17, ... all throw; the section must complete and then
  // rethrow the index-3 exception regardless of scheduling.
  try {
    Pool.parallelFor(100, [&](size_t I) {
      if (I % 7 == 3)
        throw std::runtime_error("idx " + std::to_string(I));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ("idx 3", E.what());
  }
}

TEST(ThreadPoolTest, PoolSurvivesAThrowingSection) {
  ThreadPool Pool(2);
  EXPECT_THROW(
      Pool.parallelFor(8, [](size_t I) {
        if (I == 5)
          throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The pool must still be fully usable afterwards.
  std::vector<int> Counts(64, 0);
  Pool.parallelFor(Counts.size(), [&](size_t I) { Counts[I] += 1; });
  EXPECT_EQ(std::accumulate(Counts.begin(), Counts.end(), 0), 64);
}

TEST(ThreadPoolTest, NestedSectionsRunSeriallyWithoutDeadlock) {
  ThreadPool Pool(4);
  const size_t N = 8;
  std::vector<int> Counts(N * N, 0);
  Pool.parallelFor(N, [&](size_t I) {
    // A nested section on the same pool must not deadlock; it runs the
    // inner indices serially in the calling task.
    Pool.parallelFor(N, [&](size_t J) { Counts[I * N + J] += 1; });
  });
  for (size_t I = 0; I != Counts.size(); ++I)
    ASSERT_EQ(Counts[I], 1) << "cell " << I;
}

TEST(ThreadPoolTest, ConcurrencyOneSpawnsNoWorkersButCompletes) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::vector<int> Counts(100, 0);
  Pool.parallelFor(Counts.size(), [&](size_t I) { Counts[I] += 1; });
  EXPECT_EQ(std::accumulate(Counts.begin(), Counts.end(), 0), 100);
}

TEST(ThreadPoolTest, HardwareConcurrencyHasFloorOfOne) {
  EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, ParallelForStatusCapturesEveryFailureInPlace) {
  ThreadPool Pool(4);
  // No silent catch (...): every kind of exception surfaces at its own
  // index as a structured Status, and no index's failure hides another's.
  std::vector<Status> Results =
      Pool.parallelForStatus(40, [](size_t I) {
        if (I % 10 == 3)
          throw AlpException(
              Status::error(StatusCode::RationalOverflow, "overflow"));
        if (I % 10 == 7)
          throw std::bad_alloc();
        if (I % 10 == 9)
          throw std::runtime_error("detail");
      });
  ASSERT_EQ(Results.size(), 40u);
  for (size_t I = 0; I != Results.size(); ++I) {
    switch (I % 10) {
    case 3:
      EXPECT_EQ(Results[I].code(), StatusCode::RationalOverflow);
      break;
    case 7:
      EXPECT_EQ(Results[I].code(), StatusCode::BudgetExceeded);
      EXPECT_NE(Results[I].str().find("out of memory"), std::string::npos);
      break;
    case 9:
      EXPECT_FALSE(Results[I].isOk());
      EXPECT_NE(Results[I].str().find("detail"), std::string::npos);
      break;
    default:
      EXPECT_TRUE(Results[I].isOk()) << "index " << I;
      break;
    }
  }
}

TEST(ThreadPoolTest, ParallelForStatusNeverThrowsAndPoolSurvives) {
  ThreadPool Pool(2);
  std::vector<Status> Results;
  EXPECT_NO_THROW(Results = Pool.parallelForStatus(
                      8, [](size_t) { throw 17; })); // Non-std payload.
  for (const Status &S : Results)
    EXPECT_FALSE(S.isOk());
  std::vector<int> Counts(32, 0);
  Pool.parallelFor(Counts.size(), [&](size_t I) { Counts[I] += 1; });
  EXPECT_EQ(std::accumulate(Counts.begin(), Counts.end(), 0), 32);
}
