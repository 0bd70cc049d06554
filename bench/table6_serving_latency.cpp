// Serving latency: `pgtool serve` sessions vs one-shot invocations.
//
// The engine layer (src/engine/) exists so that a query pays neither
// process start nor snapshot map + checksum: `pgtool serve` maps the .pgs
// once and answers arbitrarily many queries over the live mapping. This
// bench quantifies the per-query win on the golden snapshot, reported like
// the table5 snapshot column:
//
//   * cold one-shot  — Engine::from_snapshot + one query per request, the
//     per-invocation floor of the old CLI (a real process one-shot adds
//     exec + dynamic-loader time on top, so the reported speedup is a
//     lower bound);
//   * warm session   — one Engine, many queries (the serve mode), split by
//     query type;
//   * protocol loop  — full serve_session round trips (parse + execute +
//     format) driven through in-memory streams, i.e. what a scripted
//     `pgtool serve` session measures minus the pipe itself;
//   * concurrent sessions — 1/2/4 ping-pong TCP clients against ONE
//     net::Server sharing the same mapping (the `pgtool serve --listen`
//     mode), measuring the per-query round trip including loopback and
//     the thread-per-connection machinery;
//   * pipelining — one connection to the same server sending bursts of
//     depth 1/8/64 requests per write; depth amortizes the loopback round
//     trip, so deep bursts must beat ping-pong by a wide margin.
//
// Usage: table6_serving_latency [snapshot.pgs] [--json[=FILE]]
// Without a snapshot argument it looks for tests/data/golden.pgs (cwd or
// parent) and falls back to building a kron:12:8 snapshot in a temp file.
// --json additionally emits every row as a machine-readable report (to
// stdout, or to FILE with --json=FILE) in the same spirit as table4's
// google-benchmark JSON — the CI bench-smoke job archives these.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/prob_graph.hpp"
#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "engine/query.hpp"
#include "graph/generators.hpp"
#include "io/snapshot.hpp"
#include "net/line_scanner.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/timer.hpp"

namespace pb = probgraph;

namespace {

std::string locate_snapshot(const std::vector<std::string>& positional,
                            std::optional<std::string>& temp) {
  if (!positional.empty()) return positional.front();
  for (const char* candidate : {"tests/data/golden.pgs", "../tests/data/golden.pgs"}) {
    if (std::filesystem::exists(candidate)) return candidate;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "table6_serving.tmp.pgs").string();
  std::printf("golden.pgs not found; building a kron:12:8 snapshot at %s\n", path.c_str());
  const pb::CsrGraph g = pb::gen::kronecker(12, 8.0, 7);
  const pb::ProbGraph pg(g, pb::ProbGraphConfig{});
  pb::io::save_snapshot(path, pg);
  temp = path;
  return path;
}

/// Buffered reply reader for the bench clients: bulk recv into a
/// LineScanner so reading 64-deep pipelined replies costs a few syscalls,
/// not one per byte — the bench must time the server, not a naive client.
struct ReplyReader {
  explicit ReplyReader(pb::net::Socket& s) : sock(&s) {}
  pb::net::Socket* sock;
  pb::net::LineScanner scanner{1 << 16};

  bool next(std::string& line) {
    for (;;) {
      if (scanner.next(line) == pb::net::LineScanner::Next::kLine) return true;
      char buf[16384];
      const long got = sock->read_some(buf, sizeof buf);
      if (got <= 0) return false;
      scanner.feed(buf, static_cast<std::size_t>(got));
    }
  }
};

double seconds_per_iter(int iters, const auto& body) {
  pb::util::Timer timer;
  for (int i = 0; i < iters; ++i) body();
  return timer.seconds() / iters;
}

/// Machine-readable mirror of the printed rows, emitted only under
/// --json[=FILE]. Shape follows google-benchmark's report (a context
/// object + a benchmarks array) so the CI artifacts parse uniformly.
struct JsonReport {
  bool enabled = false;
  std::string file;  // empty = stdout
  std::vector<std::pair<std::string, double>> rows;  // name -> us/query

  void add(const std::string& name, double us_per_query) {
    if (enabled) rows.emplace_back(name, us_per_query);
  }

  void emit(const std::string& snapshot, pb::VertexId n) const {
    if (!enabled) return;
    std::FILE* out = file.empty() ? stdout : std::fopen(file.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for the JSON report\n", file.c_str());
      return;
    }
    const bool obs =
#if defined(PROBGRAPH_OBS) && PROBGRAPH_OBS
        true;
#else
        false;
#endif
    std::fprintf(out,
                 "{\n  \"context\": {\n    \"snapshot\": \"%s\",\n"
                 "    \"num_vertices\": %u,\n    \"obs_enabled\": %s\n  },\n"
                 "  \"benchmarks\": [\n",
                 snapshot.c_str(), n, obs ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"us_per_query\": %.4f}%s\n",
                   rows[i].first.c_str(), rows[i].second,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (!file.empty()) std::fclose(out);
  }
};

}  // namespace

int main(int argc, char** argv) {
  JsonReport json;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json.enabled = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json.enabled = true;
      json.file = arg.substr(7);
    } else {
      positional.push_back(arg);
    }
  }
  std::optional<std::string> temp;
  const std::string path = locate_snapshot(positional, temp);

  namespace eng = pb::engine;
  eng::Engine warm = eng::Engine::from_snapshot(path);
  const pb::VertexId n = warm.graph().num_vertices();
  std::printf("snapshot: %s — n=%u, %s sketches, %.2f MB file\n", path.c_str(), n,
              pb::to_string(warm.snapshot().info().kind),
              static_cast<double>(warm.snapshot().info().file_bytes) / 1e6);

  const eng::Query pair_query =
      eng::PairEstimate{eng::EstimateKind::kIntersection, {{0, 1 % n}, {2 % n, 3 % n}}, false};

  constexpr int kCold = 200;
  constexpr int kWarmPair = 20000;
  constexpr int kWarmScan = 50;

  // Cold one-shot: map + checksum + query, every time — what each CLI
  // invocation used to pay after process start.
  const double cold = seconds_per_iter(kCold, [&] {
    eng::Engine e = eng::Engine::from_snapshot(path);
    (void)e.run(pair_query);
  });

  // Warm session: the mapping is live, a query is just the algorithm.
  const double warm_pair = seconds_per_iter(kWarmPair, [&] { (void)warm.run(pair_query); });
  const double warm_stats = seconds_per_iter(kWarmPair, [&] { (void)warm.run(eng::GraphStats{}); });
  const double warm_tc =
      seconds_per_iter(kWarmScan, [&] { (void)warm.run(eng::TriangleCount{}); });

  // Protocol round trips: parse one request line, execute, format a reply.
  std::string script;
  for (int i = 0; i < kWarmPair; ++i) script += "pair intersection 0 1\n";
  script += "quit\n";
  std::istringstream in(script);
  std::ostringstream out;
  pb::util::Timer proto_timer;
  const std::size_t answered =
      eng::serve_session(*eng::make_session_host(warm), in, out);
  const double proto = proto_timer.seconds() / static_cast<double>(answered);

  json.add("cold_one_shot_pair", cold * 1e6);
  json.add("warm_session_pair", warm_pair * 1e6);
  json.add("warm_session_stats", warm_stats * 1e6);
  json.add("warm_session_tc", warm_tc * 1e6);
  json.add("protocol_round_trip_pair", proto * 1e6);

  std::printf("\n--- per-query latency: serve session vs one-shot (cold map) ---\n");
  std::printf("cold one-shot (map+checksum+pair) %10.1f us/query\n", cold * 1e6);
  std::printf("warm session, pair estimate       %10.3f us/query | %8.1fx vs cold\n",
              warm_pair * 1e6, cold / warm_pair);
  std::printf("warm session, stats               %10.3f us/query | %8.1fx vs cold\n",
              warm_stats * 1e6, cold / warm_stats);
  std::printf("warm session, tc (full scan)      %10.1f us/query\n", warm_tc * 1e6);
  std::printf("serve protocol round trip (pair)  %10.3f us/query (parse+execute+format)\n",
              proto * 1e6);
  std::printf("\nA real one-shot also pays process start (exec + loader), so the\n"
              "session speedup is a lower bound; scan-type queries (tc) amortize the\n"
              "map less since the algorithm dominates.\n");

  // Multi-substrate routing: one v2 snapshot carrying BF+KMV in both
  // orientations. The substrate lookup is a handful of pointer compares
  // hoisted once per query, so a routed (kind=) query must cost the same
  // as a primary-substrate one — this section proves the routing layer
  // adds nothing to the hot path.
  if (!warm.source_oriented()) {
    const std::string multi_path =
        (std::filesystem::temp_directory_path() / "table6_multi.tmp.pgs").string();
    const pb::CsrGraph& g = warm.graph();
    const pb::SketchKind kinds[] = {pb::SketchKind::kBloomFilter, pb::SketchKind::kKmv};
    const pb::io::SubstrateSet set =
        pb::io::build_substrates(g, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
    pb::io::save_snapshot(multi_path, set.substrates);
    eng::Engine multi = eng::Engine::from_snapshot(multi_path);

    eng::PairEstimate routed_bf{eng::EstimateKind::kIntersection,
                                {{0, 1 % n}, {2 % n, 3 % n}}, false};
    routed_bf.sketch = pb::SketchKind::kBloomFilter;
    eng::PairEstimate routed_kmv = routed_bf;
    routed_kmv.sketch = pb::SketchKind::kKmv;
    // Routing cost in isolation: the SAME substrate answers both the
    // default route and an explicit kind=bf route, so any delta IS the
    // kind= lookup. The KMV rows then show the portfolio view (a
    // different estimator, so a different cost by design).
    const double multi_pair =
        seconds_per_iter(kWarmPair, [&] { (void)multi.run(pair_query); });
    const double multi_pair_bf =
        seconds_per_iter(kWarmPair, [&] { (void)multi.run(eng::Query{routed_bf}); });
    const double multi_pair_kmv =
        seconds_per_iter(kWarmPair, [&] { (void)multi.run(eng::Query{routed_kmv}); });
    const double multi_tc =
        seconds_per_iter(kWarmScan, [&] { (void)multi.run(eng::TriangleCount{}); });
    const double multi_tc_kmv = seconds_per_iter(
        kWarmScan, [&] { (void)multi.run(eng::TriangleCount{.sketch = pb::SketchKind::kKmv}); });

    json.add("multi_pair_default_route", multi_pair * 1e6);
    json.add("multi_pair_kind_bf", multi_pair_bf * 1e6);
    json.add("multi_pair_kind_kmv", multi_pair_kmv * 1e6);
    json.add("multi_tc_dag_route", multi_tc * 1e6);
    json.add("multi_tc_kind_kmv", multi_tc_kmv * 1e6);

    std::printf("\n--- multi-substrate snapshot (BF+KMV x sym+dag, one mapping) ---\n");
    std::printf("pair, default route (BF/sym)      %10.3f us/query\n", multi_pair * 1e6);
    std::printf("pair, kind=bf (same substrate)    %10.3f us/query | routing delta %+.3f us\n",
                multi_pair_bf * 1e6, (multi_pair_bf - multi_pair) * 1e6);
    std::printf("pair, kind=kmv (KMV/sym)          %10.3f us/query (different estimator)\n",
                multi_pair_kmv * 1e6);
    std::printf("tc, routed to the DAG substrate   %10.1f us/query (oriented estimator)\n",
                multi_tc * 1e6);
    std::printf("tc, kind=kmv (KMV/dag)            %10.1f us/query\n", multi_tc_kmv * 1e6);
    std::printf("One file now answers every query class; the default-vs-kind=bf rows\n"
                "time the SAME substrate, isolating the per-query routing lookup.\n");
    std::error_code ec;
    std::filesystem::remove(multi_path, ec);
  }

  // Concurrent sessions over ONE shared mapping: the thread-per-connection
  // server (`pgtool serve --listen`), C ping-pong clients each sending a
  // pair request and waiting for its reply — per-query wire latency.
  // Then pipelining on one connection: N requests in one write, the
  // replies read back as they come, so the loopback round trip amortizes
  // across the burst.
  {
    pb::net::ServeOptions sopts;
    sopts.engine = &warm;
    pb::net::Server server(sopts);
    std::thread runner([&] { server.run(); });
    constexpr int kPerClient = 2000;

    std::printf("\n--- concurrent sessions against one mapping (loopback TCP) ---\n");
    for (const int clients : {1, 2, 4}) {
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(clients));
      std::atomic<long long> completed{0};
      pb::util::Timer timer;
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&server, &completed] {
          try {
            pb::net::Socket sock = pb::net::connect_to("127.0.0.1", server.port());
            ReplyReader reader(sock);
            std::string reply;
            for (int i = 0; i < kPerClient; ++i) {
              if (!sock.write_all("pair intersection 0 1\n")) return;
              if (!reader.next(reply)) return;
              completed.fetch_add(1, std::memory_order_relaxed);
            }
            (void)sock.write_all("quit\n");
            (void)reader.next(reply);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "bench client error: %s\n", e.what());
          }
        });
      }
      for (auto& w : workers) w.join();
      const double secs = timer.seconds();
      const double total = static_cast<double>(completed.load());
      const double expected = static_cast<double>(clients) * kPerClient;
      if (total < expected) {
        std::printf("%d client%s: only %.0f/%.0f queries completed — skipping the row\n",
                    clients, clients == 1 ? " " : "s", total, expected);
        continue;
      }
      std::printf("%d client%s x %d queries   %10.3f us/query round trip | %9.0f q/s aggregate\n",
                  clients, clients == 1 ? " " : "s", kPerClient,
                  secs / (total / clients) * 1e6, total / secs);
      json.add("tcp_round_trip_" + std::to_string(clients) + "_clients",
               secs / (total / clients) * 1e6);
    }
    std::printf("Round trips include loopback TCP and the per-connection session\n"
                "thread; aggregate q/s shows how sessions scale on one mapping\n"
                "(bounded by cores — this is the serving story, not a kernel bench).\n");

    std::printf("\n--- pipelined bursts on one connection ---\n");
    double depth1_us = 0.0;
    for (const int depth : {1, 8, 64}) {
      constexpr int kTotal = 8192;
      const int iters = kTotal / depth;
      std::string burst;
      for (int i = 0; i < depth; ++i) burst += "pair intersection 0 1\n";
      try {
        pb::net::Socket sock = pb::net::connect_to("127.0.0.1", server.port());
        ReplyReader reader(sock);
        std::string reply;
        bool ok = true;
        pb::util::Timer timer;
        for (int it = 0; it < iters && ok; ++it) {
          if (!sock.write_all(burst)) ok = false;
          for (int i = 0; i < depth && ok; ++i) {
            if (!reader.next(reply) || reply.rfind("ok", 0) != 0) ok = false;
          }
        }
        const double secs = timer.seconds();
        (void)sock.write_all("quit\n");
        if (!ok) {
          std::printf("depth %2d: session failed — skipping the row\n", depth);
          continue;
        }
        const double us = secs / (static_cast<double>(iters) * depth) * 1e6;
        if (depth == 1) depth1_us = us;
        std::printf("depth %2d x %4d bursts   %10.3f us/query | %9.0f q/s",
                    depth, iters, us, static_cast<double>(iters) * depth / secs);
        if (depth > 1 && depth1_us > 0.0) {
          std::printf(" | %5.1fx vs depth 1", depth1_us / us);
        }
        std::printf("\n");
        json.add("pipeline_depth_" + std::to_string(depth), us);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "pipelining client error: %s\n", e.what());
      }
    }

    server.request_stop();
    runner.join();
    std::printf("Pipelined depth amortizes the round trip — deep bursts approach\n"
                "the protocol-loop floor above.\n");
  }

  json.emit(path, n);

  if (temp) {
    std::error_code ec;
    std::filesystem::remove(*temp, ec);
  }
  return 0;
}
