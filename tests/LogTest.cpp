//===-- tests/LogTest.cpp - Logging / flight-recorder / crash tests -------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the structured logger (level parsing, the human and JSONL
/// sink formats, per-level counters), the per-thread flight recorder
/// (ring wrap-around, span markers, the open-span stack, untouched
/// rings), and the crash-report writer validated through the tool's own
/// strict JSON parser, including reports written from a stack overflow
/// on the main thread and on a pool worker.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"
#include "telemetry/CrashHandler.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Json.h"
#include "telemetry/Log.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

using namespace dmm;

namespace {

/// RAII: captures the human sink into a string and restores the logger
/// defaults afterwards so tests do not leak configuration.
class CapturedLogger {
public:
  CapturedLogger(LogLevel Level = LogLevel::Trace) {
    Logger::instance().setLevel(Level);
    Logger::instance().setHumanSink(&OS);
  }
  ~CapturedLogger() { Logger::instance().resetForTest(); }
  std::string text() const { return OS.str(); }

private:
  std::ostringstream OS;
};

TEST(Log, ParsesLevelNamesAndAliases) {
  LogLevel L;
  EXPECT_TRUE(parseLogLevel("error", L));
  EXPECT_EQ(L, LogLevel::Error);
  EXPECT_TRUE(parseLogLevel("warn", L));
  EXPECT_EQ(L, LogLevel::Warn);
  EXPECT_TRUE(parseLogLevel("warning", L)); // Historical alias.
  EXPECT_EQ(L, LogLevel::Warn);
  EXPECT_TRUE(parseLogLevel("trace", L));
  EXPECT_EQ(L, LogLevel::Trace);
  EXPECT_FALSE(parseLogLevel("", L));
  EXPECT_FALSE(parseLogLevel("WARN", L)); // Case-sensitive.
  EXPECT_FALSE(parseLogLevel("verbose", L));

  // The human label preserves the historical "warning:" prefix; the
  // canonical name is the short spelling.
  EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
  EXPECT_STREQ(logLevelLabel(LogLevel::Warn), "warning");
  EXPECT_STREQ(logLevelLabel(LogLevel::Error), "error");
}

TEST(Log, HumanSinkFormatsFields) {
  CapturedLogger Cap;
  logError("cannot open input file", {kv("path", "missing.mcc")});
  logWarn("odd state", {kv("count", 3), kv("detail", "two words")});
  logInfo("plain message");

  const std::string Text = Cap.text();
  EXPECT_NE(Text.find("error: cannot open input file path=missing.mcc\n"),
            std::string::npos);
  // Values with spaces are quoted; bare values are not.
  EXPECT_NE(Text.find("warning: odd state count=3 detail=\"two words\"\n"),
            std::string::npos);
  EXPECT_NE(Text.find("info: plain message\n"), std::string::npos);
}

TEST(Log, LevelFilterSuppressesAndCounts) {
  const uint64_t InfoBefore = Logger::instance().count(LogLevel::Info);
  const uint64_t WarnBefore = Logger::instance().count(LogLevel::Warn);
  {
    CapturedLogger Cap(LogLevel::Warn);
    logInfo("below the filter");
    logWarn("at the filter");
    EXPECT_EQ(Cap.text().find("below the filter"), std::string::npos);
    EXPECT_NE(Cap.text().find("at the filter"), std::string::npos);
  }
  // Counters only see events that passed the filter.
  EXPECT_EQ(Logger::instance().count(LogLevel::Info), InfoBefore);
  EXPECT_EQ(Logger::instance().count(LogLevel::Warn), WarnBefore + 1);
}

TEST(Log, JsonSinkEmitsParseableLines) {
  const std::string Path = "log_test_sink.jsonl";
  {
    CapturedLogger Cap;
    std::string Error;
    ASSERT_TRUE(Logger::instance().openJsonSink(Path, Error)) << Error;
    logError("boom", {kv("path", "a \"b\"\n"), kv("n", -7)});
    logDebug("quiet");
    Logger::instance().closeJsonSink();
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.is_open());
  std::string Line;
  size_t Lines = 0;
  bool SawBoom = false;
  while (std::getline(In, Line)) {
    ++Lines;
    json::Value V;
    std::string Error;
    ASSERT_TRUE(json::parse(Line, V, Error)) << Line << ": " << Error;
    ASSERT_TRUE(V.isObject());
    EXPECT_TRUE(V.get("ts_ns") && V.get("ts_ns")->isNumber());
    if (V.getString("msg") == "boom") {
      SawBoom = true;
      EXPECT_EQ(V.getString("level"), "error");
      const json::Value *Fields = V.get("fields");
      ASSERT_NE(Fields, nullptr);
      // Escapes round-trip through the strict parser.
      EXPECT_EQ(Fields->getString("path"), "a \"b\"\n");
      EXPECT_EQ(Fields->getNumber("n"), -7.0);
    }
  }
  EXPECT_GE(Lines, 2u);
  EXPECT_TRUE(SawBoom);
  std::remove(Path.c_str());
}

TEST(Log, OpenJsonSinkFailsOnBadPath) {
  std::string Error;
  EXPECT_FALSE(Logger::instance().openJsonSink(
      "no_such_dir_xyz/log.jsonl", Error));
  EXPECT_NE(Error.find("no_such_dir_xyz"), std::string::npos);
  Logger::instance().resetForTest();
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

// The recorder is process-wide and installed once; every test below
// shares one instance and therefore reasons in deltas.

TEST(FlightRecorder, RecordsAndWrapsRings) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();
  ASSERT_NE(R, nullptr);

  const uint64_t Before = R->eventsRecorded();
  // Overfill the calling thread's ring no matter what capacity the
  // first install picked (tests share the process-wide recorder).
  const size_t N = R->capacity() + 50;
  for (size_t I = 0; I != N; ++I)
    R->record(FlightEventKind::Log, 0, "wrap-test-event");
  EXPECT_EQ(R->eventsRecorded(), Before + N);
  EXPECT_GE(R->eventsDropped(), uint64_t(50));

  // The snapshot holds at most capacity entries per thread, sorted by
  // sequence number, and the newest event is retained.
  std::vector<FlightEvent> Events = R->snapshot();
  ASSERT_FALSE(Events.empty());
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_LT(Events[I - 1].Seq, Events[I].Seq);
  EXPECT_EQ(std::string(Events.back().Text), "wrap-test-event");
  EXPECT_EQ(Events.back().Seq, Before + N);
}

TEST(FlightRecorder, TruncatesLongMessages) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();
  const std::string Long(500, 'x');
  R->record(FlightEventKind::Log, 2, Long.c_str());
  std::vector<FlightEvent> Events = R->snapshot();
  ASSERT_FALSE(Events.empty());
  const FlightEvent &E = Events.back();
  EXPECT_EQ(std::string(E.Text), std::string(sizeof(E.Text) - 1, 'x'));
  EXPECT_EQ(E.Level, 2);
}

TEST(FlightRecorder, SpanMarkersAndStack) {
  FlightRecorder::install();
  FlightRecorder *R = FlightRecorder::active();

  const char *Names[FlightRecorder::kMaxSpanDepth];
  {
    // Spans hit the recorder even with no Telemetry registry active —
    // that is what makes crash reports useful on plain runs.
    Span Outer("unit.outer");
    Span Inner("unit.inner");
    size_t Depth = R->currentSpanStack(Names, FlightRecorder::kMaxSpanDepth);
    ASSERT_GE(Depth, 2u);
    EXPECT_STREQ(Names[Depth - 2], "unit.outer");
    EXPECT_STREQ(Names[Depth - 1], "unit.inner");
  }
  const size_t DepthAfter =
      R->currentSpanStack(Names, FlightRecorder::kMaxSpanDepth);

  std::vector<FlightEvent> Events = R->snapshot();
  bool SawBegin = false, SawEnd = false;
  for (const FlightEvent &E : Events) {
    if (std::string(E.Text) != "unit.inner")
      continue;
    SawBegin = SawBegin || E.Kind == FlightEventKind::SpanBegin;
    SawEnd = SawEnd || E.Kind == FlightEventKind::SpanEnd;
  }
  EXPECT_TRUE(SawBegin);
  EXPECT_TRUE(SawEnd);
  // Both spans popped again.
  for (size_t I = 0; I < DepthAfter; ++I) {
    EXPECT_STRNE(Names[I], "unit.outer");
    EXPECT_STRNE(Names[I], "unit.inner");
  }
}

TEST(FlightRecorder, LogEventsLandInRings) {
  FlightRecorder::install();
  CapturedLogger Cap;
  logWarn("recorder-visible warning");
  std::vector<FlightEvent> Events = FlightRecorder::active()->snapshot();
  bool Found = false;
  for (const FlightEvent &E : Events)
    Found = Found || (E.Kind == FlightEventKind::Log &&
                      std::string(E.Text) == "recorder-visible warning" &&
                      E.Level == static_cast<uint8_t>(LogLevel::Warn));
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Crash reports
//===----------------------------------------------------------------------===//

#ifndef _WIN32

TEST(CrashReport, WriteCrashReportEmitsValidJson) {
  FlightRecorder::install();
  {
    CapturedLogger Cap;
    logError("pre-crash breadcrumb");
  }

  const std::string Path = "crash_report_test.json";
  std::string Text;
  {
    Span Root("pipeline");
    Span Fault("inject.fault");
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    writeCrashReport(Fd, "SIGSEGV");
    ::close(Fd);

    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }
  std::remove(Path.c_str());

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, V, Error)) << Error;
  EXPECT_EQ(V.getString("schema"), kCrashSchemaName);
  EXPECT_EQ(V.getNumber("version"), kCrashSchemaVersion);
  EXPECT_EQ(V.getString("reason"), "SIGSEGV");

  // The open spans at write time, outermost first.
  const json::Value *SpanStack = V.get("span_stack");
  ASSERT_NE(SpanStack, nullptr);
  ASSERT_TRUE(SpanStack->isArray());
  ASSERT_GE(SpanStack->array().size(), 2u);
  const auto &Stack = SpanStack->array();
  EXPECT_EQ(Stack[Stack.size() - 2].str(), "pipeline");
  EXPECT_EQ(Stack[Stack.size() - 1].str(), "inject.fault");

  // At least one flight-recorder event, with the breadcrumb findable.
  const json::Value *Events = V.get("flight_recorder");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_FALSE(Events->array().empty());
  bool SawBreadcrumb = false;
  for (const json::Value &E : Events->array()) {
    EXPECT_TRUE(E.get("seq") && E.get("seq")->isNumber());
    EXPECT_TRUE(E.get("kind") && E.get("kind")->isString());
    SawBreadcrumb =
        SawBreadcrumb || E.getString("text") == "pre-crash breadcrumb";
  }
  EXPECT_TRUE(SawBreadcrumb);

  // Counter snapshot: all the async-signal-safe atomics.
  const json::Value *Counters = V.get("counters");
  ASSERT_NE(Counters, nullptr);
  for (const char *Key : {"log_error", "log_warn", "log_info", "log_debug",
                          "log_trace", "recorder_events",
                          "recorder_dropped"}) {
    const json::Value *C = Counters->get(Key);
    ASSERT_NE(C, nullptr) << Key;
    EXPECT_TRUE(C->isNumber()) << Key;
  }
  EXPECT_GE(Counters->getNumber("log_error"), 1.0);
  // No crash actually happened in this process.
  EXPECT_EQ(crashReportsWritten(), 0u);
}

/// Cleared never; read through a volatile so the recursion below has a
/// visible exit and compiles without an infinite-recursion warning.
volatile bool KeepRecursing = true;

/// Recurses until the stack runs out. Not a tail call, and each frame
/// keeps a volatile buffer, so every level consumes real stack.
int recurseWithoutBound(int Depth) {
  volatile char Frame[512];
  Frame[0] = static_cast<char>(Depth);
  if (!KeepRecursing)
    return Frame[0];
  return recurseWithoutBound(Depth + 1) + Frame[0];
}

/// The doomed child of the death test below: installs the crash
/// handler on this (main) thread, then overflows the stack.
void overflowStackUnderCrashHandler(const std::string &CrashDir) {
  // Keep the overflow small: a 1 MiB stack fills in microseconds.
  struct rlimit Stack;
  getrlimit(RLIMIT_STACK, &Stack);
  if (Stack.rlim_cur == RLIM_INFINITY || Stack.rlim_cur > (1u << 20))
    Stack.rlim_cur = 1u << 20;
  setrlimit(RLIMIT_STACK, &Stack);
  ::setenv("DMM_CRASH_DIR", CrashDir.c_str(), 1);
  static const char *const Argv[] = {"dmm_tests", nullptr};
  FlightRecorder::install();
  installCrashHandler(1, Argv, "dmm_tests", "test");
  Span Root("pipeline");
  recurseWithoutBound(0);
}

/// The doomed child of the worker death test below: installs the crash
/// handler, then overflows the stack of a thread-pool worker.
void overflowWorkerStackUnderCrashHandler(const std::string &CrashDir) {
  ::setenv("DMM_CRASH_DIR", CrashDir.c_str(), 1);
  static const char *const Argv[] = {"dmm_tests", nullptr};
  FlightRecorder::install();
  installCrashHandler(1, Argv, "dmm_tests", "test");
  ThreadPool Pool(2);
  Span Root("pipeline");
  Pool.parallelFor(2, [](size_t) {
    // The calling thread parks on whichever index it takes, so the other
    // index runs on the worker.
    if (!ThreadPool::inWorker())
      for (;;)
        ::pause();
    Span Task("worker.task");
    recurseWithoutBound(0);
  });
}

/// Runs \p Doomed in a death-test child that must die by SIGSEGV after
/// announcing a crash report in the fresh directory \p DirName, and
/// returns the one report it left there.
template <typename Fn>
std::string crashReportFromChild(const char *DirName, Fn Doomed) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::absolute(DirName);
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  EXPECT_EXIT(Doomed(Dir.string()), testing::KilledBySignal(SIGSEGV),
              "crash report written");

  std::string Text;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    EXPECT_TRUE(Text.empty()) << "more than one crash report";
    EXPECT_EQ(E.path().filename().string().rfind("dmm-crash-", 0), 0u);
    std::ifstream In(E.path());
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }
  fs::remove_all(Dir);
  return Text;
}

/// Parses \p Text with the strict parser and checks it is a SIGSEGV
/// report whose crashing thread had \p InnermostSpan open.
void expectOverflowReport(const std::string &Text,
                          const std::string &InnermostSpan) {
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, V, Error)) << Error << "\n" << Text;
  EXPECT_EQ(V.getString("schema"), kCrashSchemaName);
  EXPECT_EQ(V.getNumber("version"), kCrashSchemaVersion);
  EXPECT_EQ(V.getString("reason"), "SIGSEGV");
  const json::Value *SpanStack = V.get("span_stack");
  ASSERT_NE(SpanStack, nullptr);
  ASSERT_TRUE(SpanStack->isArray());
  ASSERT_FALSE(SpanStack->array().empty());
  EXPECT_EQ(SpanStack->array().back().str(), InnermostSpan);
}

TEST(CrashReport, StackOverflowStillWritesReport) {
  // The child re-executes this test alone, so the handler it installs
  // is its own, on its main thread.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  expectOverflowReport(crashReportFromChild("crash_overflow_test",
                                            overflowStackUnderCrashHandler),
                       "pipeline");
}

TEST(CrashReport, WorkerStackOverflowStillWritesReport) {
  // As above, but the stack that overflows belongs to a pool worker,
  // which gets its alternate signal stack from the crash handler's
  // worker start hook. The report's span stack is the worker's own.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  expectOverflowReport(
      crashReportFromChild("crash_worker_overflow_test",
                           overflowWorkerStackUnderCrashHandler),
      "worker.task");
}

/// The child of the test below, a fresh process in which only the main
/// thread records. Exits 0 after writing a crash report to \p Path if
/// the other 63 rings are still all-zero bytes; exits 1 otherwise.
void recordOnMainThreadOnly(const std::string &Path) {
  FlightRecorder::install();
  {
    CapturedLogger Cap;
    logWarn("only the main thread records");
  }
  const FlightRecorder &R = *FlightRecorder::active();
  bool Untouched = R.threadCount() == 1 &&
                   R.snapshot().size() == R.eventsRecorded();
  for (size_t T = 1; T < FlightRecorder::kMaxThreads; ++T) {
    Untouched = Untouched && R.ringHead(T) == 0;
    const auto *Bytes =
        reinterpret_cast<const unsigned char *>(R.ringEntries(T));
    for (size_t I = 0; I < R.capacity() * sizeof(FlightEvent); ++I)
      Untouched = Untouched && Bytes[I] == 0;
  }
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    std::_Exit(1);
  writeCrashReport(Fd, "SIGSEGV");
  ::close(Fd);
  std::_Exit(Untouched ? 0 : 1);
}

TEST(FlightRecorder, UntouchedRingsDumpAsZeroEvents) {
  // Ring memory is committed lazily, so a ring no thread has written
  // must read as zeros and contribute nothing to a dump.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string Path =
      std::filesystem::absolute("untouched_rings_test.json").string();
  std::remove(Path.c_str());
  EXPECT_EXIT(recordOnMainThreadOnly(Path), testing::ExitedWithCode(0), "");

  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::remove(Path.c_str());
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(SS.str(), V, Error)) << Error << "\n" << SS.str();
  const json::Value *Events = V.get("flight_recorder");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_FALSE(Events->array().empty());
  for (const json::Value &E : Events->array())
    EXPECT_EQ(E.getNumber("thread"), 0.0);
  const json::Value *Counters = V.get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->getNumber("recorder_events"),
            static_cast<double>(Events->array().size()));
  EXPECT_EQ(Counters->getNumber("recorder_dropped"), 0.0);
}

#endif // !_WIN32

} // namespace
