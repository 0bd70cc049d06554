// net::LineScanner — the socket-independent incremental framer behind
// every session's request framing.
//
// The regression this file exists for: an overlong-frame resync that
// assumes it can keep reading until the next newline INSIDE one call.
// Feeding the same bytes a byte at a time (what a nonblocking socket
// legitimately delivers) loses such a discard state and either re-reports
// the same oversized frame or serves its tail as a request. The scanner's
// discard state must survive any number of feeds.
#include "net/line_scanner.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

namespace probgraph::net {
namespace {

using Next = LineScanner::Next;

TEST(LineScanner, DeliversFramesAcrossArbitrarySplits) {
  LineScanner scanner(64);
  std::string line;
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);

  scanner.feed("sta");
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);
  scanner.feed("ts\npair 0");
  EXPECT_EQ(scanner.next(line), Next::kLine);
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);
  scanner.feed(" 1\n");
  EXPECT_EQ(scanner.next(line), Next::kLine);
  EXPECT_EQ(line, "pair 0 1");
}

TEST(LineScanner, OneByteAtATimeMatchesWholeFeeds) {
  const std::string input = "tc\nstats\n\npair 0 1\n";
  LineScanner scanner(64);
  std::string line;
  std::vector<std::string> frames;
  for (const char byte : input) {
    scanner.feed({&byte, 1});
    while (scanner.next(line) == Next::kLine) frames.push_back(line);
  }
  EXPECT_EQ(frames,
            (std::vector<std::string>{"tc", "stats", "", "pair 0 1"}));
}

TEST(LineScanner, CompleteOverlongLineAnswersOnceAndResyncs) {
  LineScanner scanner(8);
  std::string line;
  scanner.feed("123456789\nok\n");  // 9 > 8, newline already present
  EXPECT_EQ(scanner.next(line), Next::kOverlong);
  EXPECT_NE(line.find("8-byte limit"), std::string::npos) << line;
  EXPECT_EQ(scanner.next(line), Next::kLine);
  EXPECT_EQ(line, "ok");
}

TEST(LineScanner, OverlongResyncStateSurvivesOneByteFeeds) {
  // THE regression: the frame crosses the bound long before its newline
  // arrives, and everything — the report, the discard, the resync, the
  // next valid frame — happens one byte at a time.
  LineScanner scanner(8);
  std::string line;
  int overlong_reports = 0;
  std::vector<std::string> frames;

  const std::string input = std::string(100, 'x') + "\nstats\n";
  for (const char byte : input) {
    scanner.feed({&byte, 1});
    for (;;) {
      const Next r = scanner.next(line);
      if (r == Next::kNeedMore) break;
      if (r == Next::kOverlong) {
        ++overlong_reports;
      } else {
        frames.push_back(line);
      }
    }
  }
  EXPECT_EQ(overlong_reports, 1) << "the oversized frame must answer exactly once";
  EXPECT_EQ(frames, (std::vector<std::string>{"stats"}));
  EXPECT_EQ(scanner.buffered(), 0u);
}

TEST(LineScanner, BackToBackOverlongFramesEachReportOnce) {
  LineScanner scanner(8);
  std::string line;
  int overlong_reports = 0;
  std::vector<std::string> frames;
  const std::string input =
      std::string(50, 'a') + "\n" + std::string(50, 'b') + "\nok\n";
  for (std::size_t i = 0; i < input.size(); i += 3) {  // ragged 3-byte feeds
    scanner.feed(input.substr(i, 3));
    for (;;) {
      const Next r = scanner.next(line);
      if (r == Next::kNeedMore) break;
      if (r == Next::kOverlong) {
        ++overlong_reports;
      } else {
        frames.push_back(line);
      }
    }
  }
  EXPECT_EQ(overlong_reports, 2);
  EXPECT_EQ(frames, (std::vector<std::string>{"ok"}));
}

TEST(LineScanner, FinishDeliversTheUnterminatedTail) {
  // getline semantics at EOF: a final frame without a newline still counts.
  LineScanner scanner(64);
  std::string line;
  scanner.feed("stats");
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);
  EXPECT_EQ(scanner.finish(line), Next::kLine);
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(scanner.finish(line), Next::kNeedMore);  // nothing left
}

TEST(LineScanner, FinishSwallowsADiscardedTail) {
  // EOF lands mid-discard: the oversized frame was already answered when
  // it crossed the bound; its unterminated tail must NOT become a frame.
  LineScanner scanner(8);
  std::string line;
  scanner.feed(std::string(20, 'x'));
  EXPECT_EQ(scanner.next(line), Next::kOverlong);
  scanner.feed("yyy");  // still the same monster frame, newline never comes
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);
  EXPECT_EQ(scanner.finish(line), Next::kNeedMore);
}

TEST(LineScanner, ZeroBoundMeansUnbounded) {
  LineScanner scanner(0);
  std::string line;
  const std::string big(1 << 20, 'z');
  scanner.feed(big);
  EXPECT_EQ(scanner.next(line), Next::kNeedMore);
  scanner.feed("\n");
  EXPECT_EQ(scanner.next(line), Next::kLine);
  EXPECT_EQ(line, big);
}

TEST(LineScanner, ExactBoundLengthIsNotOverlong) {
  LineScanner scanner(5);
  std::string line;
  scanner.feed("12345\n123456\n");
  EXPECT_EQ(scanner.next(line), Next::kLine);  // len == bound: allowed
  EXPECT_EQ(line, "12345");
  EXPECT_EQ(scanner.next(line), Next::kOverlong);  // len == bound+1: not
}

}  // namespace
}  // namespace probgraph::net
