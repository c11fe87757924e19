#include "common/log.h"

#include <regex.h>

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bcn {
namespace {

TEST(LogTest, FormatLogLinePinsTheShape) {
  const std::string line = format_log_line(LogLevel::Warn, "queue overflow");
  // [LEVEL +seconds.micros tNN] message.  POSIX <regex.h> rather than
  // std::regex, whose GCC 12 implementation trips -Wmaybe-uninitialized
  // under the sanitizer build's -Werror.
  const char* pattern =
      R"(^\[WARN \+[0-9]+\.[0-9]{6} t[0-9]{2,}\] queue overflow$)";
  regex_t shape;
  ASSERT_EQ(regcomp(&shape, pattern, REG_EXTENDED | REG_NOSUB), 0);
  EXPECT_EQ(regexec(&shape, line.c_str(), 0, nullptr, 0), 0) << line;
  regfree(&shape);
}

TEST(LogTest, EveryLevelHasAName) {
  EXPECT_NE(format_log_line(LogLevel::Debug, "m").find("[DEBUG "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Info, "m").find("[INFO "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Warn, "m").find("[WARN "),
            std::string::npos);
  EXPECT_NE(format_log_line(LogLevel::Error, "m").find("[ERROR "),
            std::string::npos);
}

TEST(LogTest, UptimeIsMonotonicAcrossCalls) {
  auto seconds_of = [](const std::string& line) {
    const auto plus = line.find('+');
    return std::stod(line.substr(plus + 1));
  };
  const double t0 = seconds_of(format_log_line(LogLevel::Info, "a"));
  const double t1 = seconds_of(format_log_line(LogLevel::Info, "b"));
  EXPECT_GE(t1, t0);
  EXPECT_GE(t0, 0.0);
}

TEST(LogTest, ThreadOrdinalIsStablePerThreadAndDistinctAcrossThreads) {
  const unsigned mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);  // stable on re-query

  std::vector<unsigned> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&seen, i] { seen[i] = thread_ordinal(); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_NE(seen[i], mine);
    for (std::size_t j = i + 1; j < seen.size(); ++j) {
      EXPECT_NE(seen[i], seen[j]);
    }
  }
}

}  // namespace
}  // namespace bcn
