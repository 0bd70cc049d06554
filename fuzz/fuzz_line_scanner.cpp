// Fuzz target: net::LineScanner — the newline framer inside every
// engine::Session, whichever driver feeds it.
//
// Input encoding: byte 0 picks max_line_bytes (0, tiny, or moderate);
// the rest is the byte stream, fed in chunks whose sizes are derived from
// the stream itself so the fuzzer controls packetization — split frames,
// many-per-read, one byte at a time, and the overlong-resync path across
// feed boundaries are all reachable.
//
// Checked invariants (abort = finding):
//   * never crashes, never throws;
//   * a delivered kLine never exceeds the bound (when bounded);
//   * buffered() never exceeds bound + 1 slack while bounded (the
//     discard path must drop overlong bytes eagerly, not accumulate);
//   * finish() terminates the stream: a second finish() yields kNeedMore.
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "net/line_scanner.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 1) return 0;

  std::size_t max_line = 0;
  switch (data[0] % 3) {
    case 0: max_line = 0; break;  // unbounded
    case 1: max_line = 8; break;  // tiny: overlong path is easy to hit
    case 2: max_line = 64; break;
  }
  probgraph::net::LineScanner scanner(max_line);

  const char* bytes = reinterpret_cast<const char*>(data) + 1;
  std::size_t left = size - 1;
  std::string line;
  std::size_t chunk_seed = data[0];
  while (left > 0) {
    // Chunk size 1..32, stirred by the data so packetization varies.
    chunk_seed = chunk_seed * 1103515245 + 12345;
    std::size_t chunk = 1 + (chunk_seed >> 16) % 32;
    if (chunk > left) chunk = left;
    scanner.feed(std::string_view(bytes, chunk));
    bytes += chunk;
    left -= chunk;

    while (true) {
      const auto status = scanner.next(line);
      if (status == probgraph::net::LineScanner::Next::kNeedMore) break;
      if (status == probgraph::net::LineScanner::Next::kLine && max_line != 0 &&
          line.size() > max_line) {
        std::abort();  // bound violated: a frame longer than the limit leaked
      }
    }
    if (max_line != 0 && scanner.buffered() > max_line + 1) {
      std::abort();  // overlong bytes are accumulating instead of being dropped
    }
  }

  (void)scanner.finish(line);
  if (scanner.finish(line) != probgraph::net::LineScanner::Next::kNeedMore) {
    std::abort();  // finish() must be terminal
  }
  return 0;
}
