// The `pgtool serve` line protocol: one query per line, one reply per line.
//
// Request grammar (whitespace-separated tokens, keywords case-insensitive;
// blank lines and lines starting with '#' are ignored):
//
//   tc [exact]                     triangle count
//   4cc [exact]                    4-clique count
//   kclique K [exact]              k-clique count, K >= 3
//   cc [exact]                     global clustering coefficient
//   cluster MEASURE TAU [exact]    Jarvis–Patrick clustering
//   pair KIND U V [U V ...] [exact]  batched per-pair estimates
//   lp K [MEASURE] [exact]         top-K predicted links
//   stats                          graph facts
//   metrics                        one-line metrics snapshot (see below)
//   update insert U V [U V ...]    stage edge inserts (live servers only)
//   update delete U V [U V ...]    stage edge tombstones (live servers only)
//   update seal                    apply staged changes as a new generation
//   epoch                          current generation + staged change counts
//   help                           one-line grammar summary
//   quit | exit                    end the session (replies "bye")
//
// KIND    ∈ intersection | jaccard | overlap | common | total
// MEASURE ∈ jaccard | overlap | common | total | adamic | resource
//
// Every sketch query (everything but stats) additionally accepts one
// `kind=SKETCH` clause anywhere after the command, SKETCH ∈ bf | kh | 1h |
// kmv: it routes the query to that sketch substrate of a multi-substrate
// snapshot (engine.hpp documents the routing rules; without the clause the
// file's primary substrate answers). `kind=` does not combine with `exact`
// — an exact run uses no sketches. Numeric arguments must be finite:
// "cluster jaccard nan" is answered with an err line, not a threshold that
// silently compares false everywhere.
//
// Every query (including stats) additionally accepts one `time` clause
// anywhere after the command: the reply gains a final
// `elapsed_us=<integer>` field with the query's execution time. That field
// is run-varying BY DESIGN — `time` (like `metrics`) is opt-in
// observability and is deliberately kept out of every golden transcript
// fixture; requests without the clause reply byte-identically whether or
// not other sessions used it.
//
// `metrics` replies `ok<TAB>metrics<TAB><field>...` where each field is a
// `name{labels}=value` sample of the process-wide obs::Registry (counters,
// histogram count/sum/p50/p90/p99/max, kernel tallies) — one line, tab-
// separated, run-varying, excluded from fixtures.
//
// The live verbs (update/epoch) are parsed for every session but only
// accepted by live servers (engine/generation.hpp); a static server
// answers them with an err line naming the --live flag. `update
// insert`/`update delete` STAGE changes; nothing is visible to queries
// until `update seal` applies every staged change atomically as a new
// snapshot generation — queries see whole generations, never partial
// batches.
//
// Reply grammar (exactly one line per non-ignored request, tab-separated):
//
//   ok<TAB>tc<TAB><value>                         scalar queries (tc, 4cc,
//                                                 kclique, cc)
//   ok<TAB>cluster<TAB>clusters=N<TAB>kept_edges=M
//   ok<TAB>pair<TAB>U:V=<value><TAB>...           one field per pair, in
//   ok<TAB>lp<TAB>U:V=<score><TAB>...             request/rank order
//   ok<TAB>stats<TAB>n=..<TAB>m=..<TAB>dmax=..<TAB>davg=..<TAB>d2=..<TAB>d3=..
//   ok<TAB>update<TAB>staged=insert|delete<TAB>edges=N<TAB>pending_inserts=I<TAB>pending_deletes=D
//   ok<TAB>update<TAB>sealed<TAB>generation=G<TAB>applied_inserts=A<TAB>applied_deletes=B<TAB>patched=P<TAB>rebuilt=R
//   ok<TAB>update<TAB>noop<TAB>generation=G       seal with nothing staged
//   ok<TAB>epoch<TAB>generation=G<TAB>pending_inserts=I<TAB>pending_deletes=D
//   err<TAB><message>                             malformed request or a
//                                                 query the source cannot
//                                                 answer — never a crash
//   bye                                           reply to quit/exit
//
// Replies are deterministic for a fixed snapshot and thread count: no
// timing or other run-varying data. Estimates print with 12 significant
// digits — identical strings to the one-shot pgtool commands, which format
// through the same helper, while staying stable across libm versions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "engine/query.hpp"
#include "graph/builder.hpp"
#include "util/timer.hpp"

namespace probgraph::engine {

/// One live-update request (the `update`/`epoch` verbs). Parsed for every
/// transport; only live servers (engine/generation.hpp) accept them.
struct LiveRequest {
  enum class Op : std::uint8_t {
    kInsert,  ///< stage edge inserts
    kDelete,  ///< stage edge tombstones
    kSeal,    ///< apply everything staged as a new generation
    kEpoch,   ///< report generation + staged counts
  };
  Op op = Op::kEpoch;
  std::vector<Edge> edges;  ///< kInsert/kDelete payload
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  std::optional<Query> query;  ///< set iff the line is a well-formed query
  std::optional<LiveRequest> live;  ///< set iff an update/epoch verb
  std::string error;           ///< set iff malformed (the err reply text)
  bool quit = false;           ///< "quit" / "exit"
  bool help = false;           ///< "help"
  bool metrics = false;        ///< "metrics" — registry snapshot reply
  bool ignored = false;        ///< blank line or '#' comment — no reply
  bool report_time = false;    ///< `time` clause: append elapsed_us= to the reply
};

[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// The shared estimate formatter (12 significant digits) — one-shot pgtool
/// output and serve replies both go through this, so their values are
/// comparable as strings.
[[nodiscard]] std::string format_estimate(double v);

/// One "ok\t..." reply line for an executed query (no trailing newline).
[[nodiscard]] std::string format_reply(const QueryResult& r);

/// One "err\t..." reply line.
[[nodiscard]] std::string format_error(std::string_view message);

/// The "ok\thelp\t..." grammar summary line.
[[nodiscard]] std::string help_reply();

/// Per-session serving knobs (pgtool serve flags map onto these).
struct ServeOptions {
  /// When > 0, any answered query whose execution time meets the threshold
  /// is logged to stderr as one structured `slow-query` line (type, mode,
  /// substrate route, elapsed_us, sanitized request). 0 disables.
  double slow_query_seconds = 0.0;
};

/// What a serve session runs against. One implementation per engine
/// flavor — a static Engine (below) or a live, generation-swapping
/// LiveEngine (engine/generation.hpp) — so every flavor shares ONE session
/// loop with identical framing, error, and metrics behavior.
class SessionHost {
 public:
  virtual ~SessionHost() = default;

  /// Execute a pipelined batch in request order, capturing each query's
  /// outcome — the result or the error Engine::run would have thrown — so
  /// one bad query never eats the replies behind it. Both hosts forward to
  /// Engine::run_batch; the live host pins ONE generation for the whole
  /// batch. Replies MUST be bit-identical to per-query Engine::run.
  [[nodiscard]] virtual std::vector<BatchItem> run_batch(std::span<const Query> queries) = 0;

  /// Answer one live request with a complete reply line ("ok\t...").
  /// Hosts that do not accept live updates throw std::runtime_error (the
  /// session answers with the err line and keeps serving).
  [[nodiscard]] virtual std::string live(const LiveRequest& req) = 0;
};

/// A session host over a static Engine: queries run directly, update/epoch
/// verbs answer an err line naming --live. Drivers create one host per
/// session through this factory (and its LiveEngine counterpart in
/// engine/generation.hpp), so no driver grows a ctor matrix over engine
/// flavors.
[[nodiscard]] std::unique_ptr<SessionHost> make_session_host(const Engine& engine);

/// The buffer-oriented session state machine — the one way into the
/// protocol. Raw transport bytes go in through feed(), complete reply bytes
/// come out through output(); the session neither reads nor writes any
/// I/O itself. Every driver is the same loop around it — feed what was
/// read, pump, write output() — whether the bytes come from a blocking
/// socket (net::Server) or a std::istream (serve_session below).
///
/// Pipelining falls out of the split: feed() may deliver any number of
/// newline-framed requests in one call (or a fraction of one), and pump()
/// answers up to `max_requests` complete buffered requests — consecutive
/// plain queries are executed through SessionHost::run_batch as ONE batch
/// — appending their replies to output() in request order. net::Server
/// passes pump(1) and writes after each call, so each reply leaves as it
/// is computed, before the later requests of a pipelined burst run.
///
/// Framing, error behavior (err line + keep serving), per-session obs
/// metrics, and reply bytes are therefore identical across drivers. Not
/// thread-safe: one session is driven by one thread.
class Session {
 public:
  /// The host must outlive the session. Destruction records the
  /// per-session metrics (sessions/queries/lifetime) exactly once.
  /// `max_line_bytes` bounds request lines: a longer frame answers one err
  /// line and the session resyncs at the next newline. 0 = unbounded, for
  /// a trusted local stream.
  explicit Session(SessionHost& host, ServeOptions opts = {},
                   std::size_t max_line_bytes = 0);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Buffer raw transport bytes (any framing fragmentation).
  void feed(std::string_view bytes);
  /// The peer sent EOF: after the buffered requests are pumped, a final
  /// unterminated frame is served like std::getline, then done() holds.
  void feed_eof() noexcept;
  /// Answer up to `max_requests` complete buffered requests, appending
  /// replies to output(). Returns the number of frames consumed (answered
  /// queries, err replies, and ignored comment/blank lines alike). Stops
  /// early at quit.
  std::size_t pump(std::size_t max_requests = static_cast<std::size_t>(-1));
  /// True once the session is over (quit answered, or EOF fully drained):
  /// no further input will be consumed. The driver closes after also
  /// draining output().
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Pending reply bytes, every reply newline-terminated, in request
  /// order. The driver owns draining: write what it can and erase the
  /// written prefix (or move the whole string out and clear).
  [[nodiscard]] std::string& output() noexcept { return out_; }
  /// Successfully answered queries so far (err replies, metrics scrapes,
  /// and live verbs not counted) — net::Server's queries_answered.
  [[nodiscard]] std::size_t answered() const noexcept { return answered_; }

 private:
  struct PendingQuery {
    Query query;
    bool report_time = false;
    std::string line;  // request text, kept only for the slow-query log
  };
  class Framer;  // LineScanner behind a pointer (net/ stays out of this header)

  void dispatch_control(const ParsedRequest& req);
  void flush_batch();
  void emit(std::string_view reply);

  SessionHost& host_;
  ServeOptions opts_;
  std::unique_ptr<Framer> framer_;
  std::vector<PendingQuery> batch_;
  std::string line_;  // the frame being parsed; its buffer is reused across frames
  std::string out_;
  std::size_t answered_ = 0;
  bool eof_ = false;
  bool done_ = false;
  util::Timer lifetime_;  // connect-to-close, recorded at destruction
};

/// Run one Session over a pair of streams — the stdin REPL and the
/// in-memory tests and benches: read request lines until EOF or quit,
/// answer exactly one reply line per non-ignored request, flushing after
/// each. Malformed frames and engine errors become "err" replies and the
/// session keeps serving. Lines are unbounded (the stream is a trusted
/// local pipe; net::Server bounds its sockets' lines through
/// net::ServeOptions::max_line_bytes). Pass `*make_session_host(engine)`
/// for a static or a live engine. Returns the number of successfully
/// answered queries (live verbs and metrics scrapes are not counted).
///
/// Observability: every session records into obs::Registry::global() —
/// sessions/bytes/err-reply counters (err causes: "overlong" frames,
/// "parse" failures, "bad-argument" client errors, "engine" routing or
/// internal failures) and per-session query-count/lifetime histograms.
/// Recording is lock-free on the session path (see obs/instruments.hpp)
/// and never changes reply bytes.
std::size_t serve_session(SessionHost& host, std::istream& in, std::ostream& out,
                          const ServeOptions& opts = {});

}  // namespace probgraph::engine
