//===-- tests/ThreadPoolTest.cpp ------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the worker pool behind the parallel pipeline stages, and
/// the determinism contract: analysis reports are byte-identical at any
/// --jobs level.
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadMemberAnalysis.h"
#include "analysis/Report.h"
#include "benchgen/Synthesizer.h"
#include "driver/Frontend.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace dmm;

namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelMapKeepsIndexOrder) {
  ThreadPool Pool(4);
  std::vector<size_t> Squares =
      Pool.parallelMap<size_t>(100, [](size_t I) { return I * I; });
  ASSERT_EQ(Squares.size(), 100u);
  for (size_t I = 0; I != Squares.size(); ++I)
    EXPECT_EQ(Squares[I], I * I);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool Pool(4);
  try {
    Pool.parallelFor(100, [](size_t I) {
      if (I % 10 == 3)
        throw std::runtime_error("boom " + std::to_string(I));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "boom 3");
  }
}

TEST(ThreadPool, PoolSurvivesThrowingLoop) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(10, [](size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  // Workers must still serve subsequent loops.
  std::atomic<int> Count{0};
  Pool.parallelFor(50, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(8, [&](size_t) {
    // A nested loop must not deadlock waiting for workers that are all
    // busy in the outer loop; it runs inline on the current thread.
    Pool.parallelFor(8, [&](size_t) { ++Count; });
  });
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPool, SingleJobRunsOnCallingThread) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    EXPECT_FALSE(ThreadPool::inWorker());
  });
}

TEST(ThreadPool, ParseJobsAcceptsOnlyPositiveDecimalCounts) {
  EXPECT_EQ(parseJobs("1"), 1u);
  EXPECT_EQ(parseJobs("4"), 4u);
  EXPECT_EQ(parseJobs("016"), 16u);
  EXPECT_EQ(parseJobs("999999999"), 999999999u);
  // strtoul/atoi would take a prefix, skip blanks, or wrap a sign.
  for (const char *Bad :
       {"", "0", "000", "4x", "abc", "-2", "+4", " 4", "4 ", "1e3",
        "1000000000", "99999999999999999999"})
    EXPECT_EQ(parseJobs(Bad), 0u) << "'" << Bad << "'";
}

/// Compiles and analyzes the whole benchmark suite (provenance on, to
/// exercise the replay-ordered mark attribution) and returns the
/// concatenated JSON reports.
std::string suiteJsonReports() {
  std::ostringstream OS;
  for (GeneratedBenchmark &G : paperBenchmarkPrograms(/*Scale=*/0.05)) {
    auto C = compileProgram(G.Files, nullptr);
    EXPECT_TRUE(C->Success) << G.Spec.Name;
    if (!C->Success)
      continue;
    AnalysisOptions Opts;
    Opts.RecordProvenance = true;
    DeadMemberAnalysis A(C->context(), C->hierarchy(), Opts);
    DeadMemberResult R = A.run(C->mainFunction());
    printJsonReport(OS, C->context(), R, &C->SM);
  }
  return OS.str();
}

TEST(ThreadPool, ReportsAreJobCountInvariant) {
  // The determinism guarantee behind --jobs: reports (classification,
  // reasons, provenance, ordering) are byte-identical whether the
  // pipeline runs sequentially or across four workers.
  setGlobalJobs(1);
  std::string Sequential = suiteJsonReports();
  setGlobalJobs(4);
  std::string Parallel = suiteJsonReports();
  setGlobalJobs(0); // Back to the default for other tests.
  ASSERT_FALSE(Sequential.empty());
  EXPECT_EQ(Sequential, Parallel);
}

} // namespace
