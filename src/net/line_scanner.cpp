#include "net/line_scanner.hpp"

namespace probgraph::net {

std::string LineScanner::overlong_text() const {
  return "request line exceeds the " + std::to_string(max_line_) +
         "-byte limit; ignored";
}

void LineScanner::feed(std::string_view bytes) {
  if (pos_ > 0) {
    // Compact once per feed: every received byte moves at most once.
    buf_.erase(0, pos_);
    scanned_ -= pos_;
    pos_ = 0;
  }
  buf_.append(bytes);
}

LineScanner::Next LineScanner::next(std::string& line) {
  if (discarding_) {
    // Resync after an already-reported overlong frame: drop everything up
    // to and including its newline. This state survives arbitrarily many
    // feeds — a socket may deliver the tail a byte at a time.
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      buf_.clear();
      pos_ = 0;
      scanned_ = 0;
      return Next::kNeedMore;
    }
    pos_ = nl + 1;
    scanned_ = pos_;
    discarding_ = false;
  }
  const std::size_t nl = buf_.find('\n', scanned_);
  if (nl != std::string::npos) {
    const std::size_t len = nl - pos_;
    line.assign(buf_, pos_, len);
    pos_ = nl + 1;
    scanned_ = pos_;
    if (max_line_ > 0 && len > max_line_) {
      line = overlong_text();
      return Next::kOverlong;
    }
    return Next::kLine;
  }
  scanned_ = buf_.size();
  if (max_line_ > 0 && buf_.size() - pos_ > max_line_) {
    // The frame is already too long and its newline has not arrived:
    // report it once, stop accumulating, and discard to the boundary.
    buf_.clear();
    pos_ = 0;
    scanned_ = 0;
    discarding_ = true;
    line = overlong_text();
    return Next::kOverlong;
  }
  return Next::kNeedMore;
}

LineScanner::Next LineScanner::finish(std::string& line) {
  if (discarding_) {
    // The unterminated tail belongs to a frame already answered with an
    // err line; swallow it.
    discarding_ = false;
    buf_.clear();
    pos_ = 0;
    scanned_ = 0;
    return Next::kNeedMore;
  }
  if (pos_ >= buf_.size()) return Next::kNeedMore;
  // Final unterminated frame: deliver it, like std::getline. It cannot
  // exceed the bound — that would have entered the discard path above.
  line.assign(buf_, pos_, std::string::npos);
  buf_.clear();
  pos_ = 0;
  scanned_ = 0;
  return Next::kLine;
}

}  // namespace probgraph::net
