// pb_driver: the measuring half of perfbench (run.py builds it and runs it).
//
// One invocation runs one workload for a fixed time and prints one result
// line. Inputs (graph, request streams, audit sample, update batches) all
// derive from --seed; the program under test only ever sees the generated
// inputs. A run is a series of slices, and every slice samples every
// metric of its workload (a set-up probe, then mining rounds or a load
// window), so each metric sees the same mix of host speed states.
//
//   mine_tc   in-process Engine(CsrGraph), OpenMP team of 2: rounds of 6 tc
//             and 1 tc exact through Engine::run.
//   mine_sym  the same, rounds of 3 cc and 1 cluster jaccard 0.1.
//   mine_4cc  the same, rounds of one 4cc.
//   serve     `pgtool build` + `pgtool serve --listen 0 --threads 1` (threads
//             transport); closed loop over 1 connection, bursts of 8 requests.
//   live      serve's reader against `pgtool serve --live`; each 1.5-s load
//             sub-window starts with a seal beside it on a second connection:
//             insert 64 edges and seal, then delete them and seal.
//
// serve and live run on one CPU (the driver and every pgtool it starts):
// spread over several, the closed loop's thread hand-offs made the
// hypervisor steal CPU time and the timings followed the steal.
//
// --trace 1 alternates untraced and traced slices. Traced slices record
// spans around the client's requests and, after the slice, replay sampled
// inputs down the layer ladder (Session -> Engine -> backend -> kernel;
// Engine::run -> algo::*; apply -> save -> load), each rung a child span.
// Spans are written to --spans at exit; per-layer self times are rung
// minus next rung for the same request.
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/clustering_coefficient.hpp"
#include "algorithms/similarity_kernels.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/kernels/kernels.hpp"
#include "engine/engine.hpp"
#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "io/snapshot.hpp"
#include "live/apply.hpp"
#include "obs/kernel_metrics.hpp"
#include "util/threading.hpp"

extern char** environ;

namespace pb {

using namespace probgraph;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - g_t0).count(); }
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_t0).count();
}

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pgtool;
  std::string work;   // scratch directory for edge lists, snapshots, logs
  std::string spans;  // where traced runs write their spans (JSONL)
  unsigned scale = 16;
  double edge_factor = 16;
  double round_s = 1.5;   // mining: time spent on rounds per slice
  // serve/live: each load window is warm_s of warm-up, then `subs`
  // sub-windows of sub_s; rates and percentiles are taken per sub-window.
  // In live every sub-window starts with a seal, which is not counted.
  double warm_s = 0.25;
  double sub_s = 0;       // 0: 0.5 s for serve, 1.5 s for live
  int subs = 0;           // 0: 5 for serve, 2 for live (one seal in each)
  int pairs_per_request = 16;
  int burst = 8;
  int connections = 1;    // reader connections
  int batch_edges = 64;
};

bool is_serving(const Args& a) { return a.workload == "serve" || a.workload == "live"; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pb_driver: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--pgtool") a.pgtool = v;
    else if (k == "--work") a.work = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--scale") a.scale = static_cast<unsigned>(std::stoul(v));
    else if (k == "--edge-factor") a.edge_factor = std::stod(v);
    else if (k == "--round-s") a.round_s = std::stod(v);
    else if (k == "--sub-s") a.sub_s = std::stod(v);
    else die("unknown flag " + k);
  }
  const bool live = a.workload == "live";
  if (a.workload != "mine_tc" && a.workload != "mine_sym" && a.workload != "mine_4cc" &&
      a.workload != "serve" && !live) {
    die("--workload must be mine_tc, mine_sym, mine_4cc, serve or live");
  }
  if (a.work.empty()) die("--work is required");
  if (is_serving(a) && a.pgtool.empty()) die("--pgtool is required");
  if (a.sub_s <= 0) a.sub_s = live ? 1.5 : 0.5;
  if (a.subs <= 0) a.subs = live ? 2 : 5;
  return a;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Percentile of a large float sample without a full sort.
double big_quantile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// ---------------------------------------------------------------- rng

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

// ---------------------------------------------------------------- spans

struct Span {
  std::uint64_t id, parent, req;
  const char* name;
  std::int64_t start_ns, end_ns;
};

// Spans live in memory until the run ends. Only the driver's main thread
// records them (the load generator is single-threaded).
class Tracer {
 public:
  bool on = false;
  std::uint64_t record(const char* name, std::uint64_t parent, std::uint64_t req,
                       std::int64_t s, std::int64_t e) {
    spans_.push_back({++next_, parent, req, name, s, e});
    return next_;
  }
  std::uint64_t new_request() { return ++req_; }
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"req\":" << s.req
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_ = 0;
  std::uint64_t req_ = 0;
};

Tracer g_tracer;

// PB_INJECT_FAULT=1 corrupts one expected answer, so the smoke test can
// prove that a wrong reply fails the run.
const bool g_inject_fault = std::getenv("PB_INJECT_FAULT") != nullptr;

// Time `f`, record it as a span when tracing, return seconds.
template <class F>
double timed_span(const char* name, std::uint64_t parent, std::uint64_t req, F&& f,
                  std::uint64_t* id_out = nullptr) {
  const std::int64_t s = now_ns();
  f();
  const std::int64_t e = now_ns();
  if (g_tracer.on) {
    const std::uint64_t id = g_tracer.record(name, parent, req, s, e);
    if (id_out) *id_out = id;
  }
  return static_cast<double>(e - s) * 1e-9;
}

// ---------------------------------------------------------------- result

struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> context;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
  void ctx(const std::string& k, const std::string& v) { context[k] = v; }
  void ctx(const std::string& k, double v);
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n' || c == '\t') {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void Result::ctx(const std::string& k, double v) { context[k] = fmt(v); }

// CPU time stolen by the hypervisor, in clock ticks (the 8th field of a
// /proc/stat "cpu" line), and the total of all fields: summed over all CPUs,
// or of one CPU when `cpu` >= 0.
std::pair<double, double> host_steal_ticks(int cpu = -1);

// The share of CPU time stolen by the hypervisor since start(): of all
// CPUs, or of the one the serving workloads run on.
struct StealMeter {
  int cpu = -1;
  std::pair<double, double> t0;
  void start() { t0 = host_steal_ticks(cpu); }
  double share() const {
    const auto t1 = host_steal_ticks(cpu);
    return t1.second > t0.second ? (t1.first - t0.first) / (t1.second - t0.second) : 0.0;
  }
};

// Per-slice (serving: per-sub-window) samples of the end-to-end metrics,
// each with the hypervisor's CPU steal over it. A run reports medians over
// the samples no more stolen than the run's median, so neither a few slices
// caught in a slow host state nor a hypervisor taking CPU time from part of
// the run moves the figures; the maximum for peak RSS; and, in traced runs,
// traced minus untraced samples as the tracing overhead.
struct SliceSeries {
  struct Sample {
    double v, steal;
    bool traced;
  };
  std::map<std::string, std::vector<Sample>> samples;

  void add(const std::string& name, double v, double steal, bool traced) {
    samples[name].push_back({v, steal, traced});
  }
  // Samples whose steal is at most steal_floor are always clean.
  double steal_floor = 0;

  // The least-stolen half (ties kept); traced: -1 all, 0 untraced, 1 traced.
  std::vector<double> clean(const std::string& name, int traced = -1) const {
    const auto it = samples.find(name);
    if (it == samples.end()) return {};
    std::vector<double> steal, out;
    for (const Sample& x : it->second) steal.push_back(x.steal);
    const double limit = std::max(median(steal), steal_floor);
    for (const Sample& x : it->second) {
      if (x.steal <= limit && (traced < 0 || x.traced == (traced == 1))) out.push_back(x.v);
    }
    return out;
  }
  // Names reported as the mean of their clean samples; the rest as the
  // median.
  std::vector<std::string> by_mean;
  double value(const std::string& name, int traced = -1) const {
    const std::vector<double> c = clean(name, traced);
    if (std::find(by_mean.begin(), by_mean.end(), name) == by_mean.end()) return median(c);
    double sum = 0;
    for (const double v : c) sum += v;
    return c.empty() ? 0.0 : sum / static_cast<double>(c.size());
  }
  // A percentile pooled over the clean samples (per-query latencies).
  double pooled(const std::string& name, double q, int traced = -1) const {
    const std::vector<double> c = clean(name, traced);
    std::vector<float> v(c.begin(), c.end());
    return big_quantile(v, q);
  }
  double max(const std::string& name) const {
    const auto it = samples.find(name);
    double m = 0;
    if (it != samples.end()) {
      for (const Sample& x : it->second) m = std::max(m, x.v);
    }
    return m;
  }
  double delta(const std::string& name) const {
    const std::vector<double> t = clean(name, 1), u = clean(name, 0);
    return t.empty() || u.empty() ? 0.0 : value(name, 1) - value(name, 0);
  }
};

// Tracing overhead: traced slices minus untraced slices of the same run.
// rel_error is computed once per run, outside the slices, so its delta is 0
// by construction.
void set_trace_deltas(Result& res, const SliceSeries& series) {
  const std::pair<const char*, const char*> e2e[] = {
      {"setup_s", "s"}, {"rss_mb", "MB"}, {"qps", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"}};
  for (const auto& [name, unit] : e2e) {
    res.set(std::string("trace.") + name + "_delta", series.delta(name), unit);
  }
  res.set("trace.rel_error_delta", 0.0, "fraction");
}

// ---------------------------------------------------------------- host facts

// Keeps replayed kernel results alive so the calls are not optimized away.
volatile std::uint64_t g_sink = 0;

// A fixed single-thread integer loop; its time tells a drifted host apart
// from a slower program.
double host_probe_ms() {
  const std::int64_t s = now_ns();
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  g_sink = acc;
  return static_cast<double>(now_ns() - s) * 1e-6;
}

struct ProcStats {
  double hwm_mb = 0;
  double csw = 0;
  double cpu_us = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double status_field(const std::string& text, const char* key) {
  const std::size_t p = text.find(key);
  if (p == std::string::npos) return 0;
  return std::strtod(text.c_str() + p + std::strlen(key), nullptr);
}

ProcStats read_proc(pid_t pid) {
  ProcStats st;
  const std::string base = "/proc/" + std::to_string(pid);
  st.hwm_mb = status_field(slurp(base + "/status"), "VmHWM:") / 1024.0;
  if (DIR* d = opendir((base + "/task").c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string t = slurp(base + "/task/" + e->d_name + "/status");
      st.csw += status_field(t, "voluntary_ctxt_switches:") +
                status_field(t, "nonvoluntary_ctxt_switches:");
    }
    closedir(d);
  }
  const std::string stat = slurp(base + "/stat");
  const std::size_t rp = stat.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream in(stat.substr(rp + 2));
    std::string f;
    std::vector<std::string> fields;
    while (in >> f) fields.push_back(f);
    // fields[0] is state (field 3); utime/stime are fields 14/15.
    if (fields.size() > 12) {
      const double ticks = std::stod(fields[11]) + std::stod(fields[12]);
      st.cpu_us = ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  return st;
}

// Restart this process's VmHWM so the next read gives the peak of one slice.
void reset_peak_rss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::pair<double, double> host_steal_ticks(int cpu) {
  const std::string stat = slurp("/proc/stat");
  const std::string key = cpu < 0 ? "cpu " : "cpu" + std::to_string(cpu) + " ";
  // Per-CPU lines follow the aggregate one, so they start after a newline.
  std::size_t at = cpu < 0 ? stat.find(key) : stat.find("\n" + key);
  if (at == std::string::npos) return {0, 0};
  if (cpu >= 0) ++at;
  std::istringstream in(stat.substr(at + key.size()));
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

// Bind the calling thread, and every process it starts from now on, to the
// highest-numbered CPU it may run on; returns that CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) throw std::runtime_error("sched_getaffinity failed");
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) throw std::runtime_error("sched_setaffinity failed");
  return cpu;
}

// ---------------------------------------------------------------- inputs

// The Kronecker generator draws one stream per OpenMP thread, so the team
// size is pinned: the graph depends on the seed alone.
CsrGraph make_graph(const Args& a) {
  util::ThreadScope team(2);
  return gen::kronecker(a.scale, a.edge_factor, a.seed);
}

using Request = std::vector<engine::VertexPair>;

bool adjacent(const CsrGraph& g, VertexId u, VertexId v) {
  const auto n = g.neighbors(u);
  return std::binary_search(n.begin(), n.end(), v);
}

// Distance-2 pairs: a degree-biased source u, a neighbor v, a neighbor w
// of v that is neither u nor adjacent to u.
std::vector<Request> make_requests(const CsrGraph& g, std::uint64_t seed, std::size_t count,
                                   int pairs) {
  Rng rng(seed);
  const auto& off = g.offsets();
  const EdgeId arcs = g.num_directed_edges();
  std::vector<Request> out(count);
  for (Request& r : out) {
    while (static_cast<int>(r.size()) < pairs) {
      const EdgeId e = rng.below(arcs);
      const auto it = std::upper_bound(off.begin(), off.end(), e);
      const auto u = static_cast<VertexId>(it - off.begin() - 1);
      const VertexId v = g.neighbors(u)[e - off[u]];
      const auto nv = g.neighbors(v);
      const VertexId w = nv[rng.below(nv.size())];
      if (w == u || adjacent(g, u, w)) continue;
      r.push_back({u, w});
    }
  }
  return out;
}

std::string request_line(const Request& r, bool exact) {
  std::string s = "pair jaccard";
  for (const auto& p : r) {
    s += ' ';
    s += std::to_string(p.u);
    s += ' ';
    s += std::to_string(p.v);
  }
  if (exact) s += " exact";
  return s;
}

engine::Query pair_query(const Request& r, bool exact) {
  return engine::PairEstimate{engine::EstimateKind::kJaccard, r, exact, std::nullopt};
}

// Batches of distinct absent edges between distinct vertices.
std::vector<std::vector<Edge>> make_batches(const CsrGraph& g, std::uint64_t seed,
                                            std::size_t nb, int per) {
  Rng rng(seed);
  std::vector<std::vector<Edge>> out(nb);
  const VertexId n = g.num_vertices();
  for (auto& b : out) {
    while (static_cast<int>(b.size()) < per) {
      auto u = static_cast<VertexId>(rng.below(n));
      auto v = static_cast<VertexId>(rng.below(n));
      if (u == v || adjacent(g, u, v)) continue;
      if (u > v) std::swap(u, v);
      if (std::find(b.begin(), b.end(), Edge{u, v}) != b.end()) continue;
      b.push_back({u, v});
    }
  }
  return out;
}

std::string update_line(const char* op, const std::vector<Edge>& b) {
  std::string s = std::string("update ") + op;
  for (const auto& e : b) s += ' ' + std::to_string(e.first) + ' ' + std::to_string(e.second);
  return s;
}

// Sum of the tab_text entries whose metric name (before any label) is `name`.
double metric_sum(const std::string& tab, const std::string& name) {
  double total = 0;
  std::size_t pos = 0;
  while (pos < tab.size()) {
    std::size_t end = tab.find('\t', pos);
    if (end == std::string::npos) end = tab.size();
    const std::string f = tab.substr(pos, end - pos);
    const std::size_t eq = f.rfind('=');
    const std::size_t br = f.find('{');
    const std::string key = f.substr(0, std::min(br == std::string::npos ? eq : br, eq));
    if (key == name && eq != std::string::npos) total += std::strtod(f.c_str() + eq + 1, nullptr);
    pos = end + 1;
  }
  return total;
}

// The numbers after each '=' of a `pair` reply, in order.
std::vector<double> reply_values(const std::string& reply) {
  std::vector<double> v;
  std::size_t p = 0;
  while ((p = reply.find('=', p)) != std::string::npos) {
    v.push_back(std::strtod(reply.c_str() + p + 1, nullptr));
    ++p;
  }
  return v;
}

// ---------------------------------------------------------------- processes

pid_t spawn(const std::vector<std::string>& argv, const std::string& stderr_path) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  std::vector<char*> cargv;
  for (const auto& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0].c_str(), &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  return pid;
}

// Wait for `pid` up to `timeout_s`; returns the exit status or -1 on timeout.
int wait_for(pid_t pid, double timeout_s) {
  const double until = now_s() + timeout_s;
  for (;;) {
    int status = 0;
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    if (r < 0) return -2;
    if (now_s() > until) return -1;
    usleep(2000);
  }
}

void stop_child(pid_t pid) {
  if (pid <= 0) return;
  kill(pid, SIGTERM);
  if (wait_for(pid, 10) == -1) {
    kill(pid, SIGKILL);
    wait_for(pid, 10);
  }
}

// Children still running when the driver exits early are killed.
std::vector<pid_t> g_children;
void kill_children() {
  for (pid_t p : g_children) {
    kill(p, SIGKILL);
    waitpid(p, nullptr, 0);
  }
  g_children.clear();
}

// ---------------------------------------------------------------- client

class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send_all(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t w = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }
  // One reply line without its newline; false on EOF, error or timeout.
  bool read_line(std::string& line, double timeout_s = 30) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > (1u << 16)) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(timeout_s * 1000));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      char tmp[1 << 16];
      const ssize_t got = ::recv(fd_, tmp, sizeof tmp, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(got));
    }
  }
  int fd() const { return fd_; }
  // Take whatever bytes have arrived without blocking; false on EOF/error.
  bool fill() {
    char tmp[1 << 16];
    for (;;) {
      const ssize_t got = ::recv(fd_, tmp, sizeof tmp, MSG_DONTWAIT);
      if (got > 0) {
        buf_.append(tmp, static_cast<std::size_t>(got));
        if (static_cast<std::size_t>(got) < sizeof tmp) return true;
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
  }
  // A complete buffered line, if any.
  bool next_line(std::string& line) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      buf_.erase(0, pos_);
      pos_ = 0;
      return false;
    }
    line.assign(buf_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }
  std::string ask(const std::string& line) {
    std::string reply;
    if (!send_all(line + "\n") || !read_line(reply)) return "";
    return reply;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- pair ladder

// Replays one client burst of pair requests down the serve-path ladder:
// Session::feed/pump -> Engine::run_batch -> visit_backend +
// est_intersection_batch + Jaccard derivation -> kernels::and_popcount on
// the same Bloom-filter rows. Every rung is timed as a child span of the
// previous one (the top rung's parent is the client's burst span).
struct PairLadder {
  engine::Engine* eng = nullptr;
  const ProbGraph* sym = nullptr;                 // the symmetric BF substrate
  engine::SessionHost* host = nullptr;
  // Per replayed chain: rung times and self times (rung minus next rung).
  std::vector<double> session_us, core_us, protocol_self_us, engine_self_us, words;

  void replay(const std::vector<const Request*>& burst, const std::string& bytes,
              const std::string& expected, std::uint64_t parent, std::uint64_t req,
              Result& res) {
    std::vector<engine::Query> qs;
    for (const Request* r : burst) qs.push_back(pair_query(*r, false));
    std::uint64_t up = parent;
    std::string out;
    const double session = timed_span("protocol.session", up, req, [&] {
      engine::Session s(*host);
      s.feed(bytes);
      s.pump();
      out = std::move(s.output());
    }, &up) * 1e6;
    session_us.push_back(session);
    ++res.attempted;
    if (out != expected) res.fail("ladder: Session reply bytes differ from the wire replies");
    const std::uint64_t w0 =
        obs::g_kernel_counters.elements[static_cast<std::size_t>(obs::KernelOp::kAndPopcount)]
            .value();
    std::vector<engine::BatchItem> items;
    const double batch =
        timed_span("engine.run_batch", up, req, [&] { items = eng->run_batch(qs); }, &up) * 1e6;
    const std::uint64_t w1 =
        obs::g_kernel_counters.elements[static_cast<std::size_t>(obs::KernelOp::kAndPopcount)]
            .value();
    words.push_back(static_cast<double>(w1 - w0) / static_cast<double>(burst.size()));
    std::vector<double> got;
    const double core = timed_span("core.pair", up, req, [&] {
      sym->visit_backend([&](const auto& be) {
        std::vector<VertexId> cands(1);
        double raw = 0;
        for (const Request* r : burst) {
          for (const auto& p : *r) {
            cands[0] = p.v;
            be.est_intersection_batch(p.u, {cands.data(), 1}, &raw);
            got.push_back(be.jaccard_from_intersection(p.u, p.v, raw));
          }
        }
      });
    }, &up) * 1e6;
    core_us.push_back(core);
    protocol_self_us.push_back(session - batch);
    engine_self_us.push_back(batch - core);
    std::uint64_t acc = 0;
    timed_span("kernels.and_popcount", up, req, [&] {
      for (const Request* r : burst) {
        for (const auto& p : *r) acc += kernels::and_popcount(sym->bf_words(p.u), sym->bf_words(p.v));
      }
    });
    g_sink = acc;
    // The backend rung must reproduce the engine's values.
    std::size_t k = 0;
    bool same = true;
    for (const auto& it : items) {
      if (!it.result) { same = false; break; }
      for (const auto& pv : it.result->pairs) same = same && k < got.size() && got[k++] == pv.value;
    }
    ++res.attempted;
    if (!same) res.fail("ladder: backend rung disagrees with Engine::run_batch");
  }

  void report(Result& res, int burst) const {
    res.set("core.pair_us", median(core_us) / burst, "us");
    res.set("engine.batch_self_us", median(engine_self_us), "us");
    res.set("kernels.pair_words", median(words), "count");
    res.set("protocol.self_us", median(protocol_self_us), "us");
  }
};

// A client burst sampled for a ladder replay after its slice.
struct PendingBurst {
  std::vector<const Request*> burst;
  std::string bytes, expected;
  std::uint64_t span = 0, req = 0;
};

// Each sampled burst is replayed this many times; per-layer figures are
// medians over the replays.
constexpr int kLadderReps = 8;

// ---------------------------------------------------------------- mine

enum MineTypeId { kTc, kCc, kCluster, k4cc, kTcExact, kMineTypes };

struct MineType {
  const char* name;
  const char* span;  // the direct algo::* call's span
  engine::Query q;
  bool integer;  // exact escape: the answer must repeat bit for bit
};

const engine::Cluster kClusterQ{algo::SimilarityMeasure::kJaccard, 0.1, false, std::nullopt};

const MineType kMine[kMineTypes] = {
    {"tc", "algorithms.tc", engine::TriangleCount{}, false},
    {"cc", "algorithms.cc", engine::ClusteringCoeff{}, false},
    {"cluster", "algorithms.cluster", kClusterQ, false},
    {"4cc", "algorithms.4cc", engine::FourCliqueCount{}, false},
    {"tc_exact", "algorithms.tc_exact", engine::TriangleCount{true, std::nullopt}, true},
};

// One round of a mining workload, interleaved. Each workload pairs a fast
// majority type, among whose queries p50 falls, with a slow minority type,
// among whose queries p99 falls, so every query type has a bounded latency
// metric of its own; qps is the geometric mean of the types' rates.
std::vector<int> mine_round(const std::string& workload) {
  if (workload == "mine_tc") return {kTc, kTc, kTc, kTcExact, kTc, kTc, kTc};
  if (workload == "mine_sym") return {kCc, kCluster, kCc, kCc};
  return {k4cc};
}

// The exact escape of a sketch query type, for rel_error.
engine::Query exact_escape(int t) {
  switch (t) {
    case kTc: return engine::TriangleCount{true, std::nullopt};
    case kCc: return engine::ClusteringCoeff{true, std::nullopt};
    case kCluster: {
      engine::Cluster q = kClusterQ;
      q.exact = true;
      return q;
    }
    default: return engine::FourCliqueCount{true, std::nullopt};
  }
}

double answer_of(const engine::QueryResult& r) {
  return r.cluster ? static_cast<double>(r.cluster->kept_edges) : r.value;
}

bool same_answer(const engine::QueryResult& a, const engine::QueryResult& b, bool integer) {
  if (a.cluster || b.cluster) {
    return a.cluster && b.cluster && a.cluster->kept_edges == b.cluster->kept_edges &&
           a.cluster->num_clusters == b.cluster->num_clusters;
  }
  if (integer) return a.value == b.value;
  // Dynamic-schedule reductions over doubles reorder additions at 2 threads.
  return std::abs(a.value - b.value) <= 1e-9 * std::abs(b.value);
}

// The direct algo::* call behind a mining query type, on prebuilt substrates.
double direct_call(int t, const CsrGraph& g, const ProbGraph& sym, const ProbGraph& dag_pg,
                   const CsrGraph& dag) {
  switch (t) {
    case kTc: return algo::triangle_count_probgraph(dag_pg);
    case kCc:
      return algo::global_clustering_coefficient(
          g, algo::triangle_count_probgraph(sym, algo::TcMode::kFull));
    case kCluster:
      return static_cast<double>(
          algo::jarvis_patrick_probgraph(sym, algo::SimilarityMeasure::kJaccard, 0.1).kept_edges);
    case k4cc: return algo::four_clique_count_probgraph(dag_pg);
    default: return static_cast<double>(algo::triangle_count_exact_oriented(dag));
  }
}

// Kernel counter totals, read around a slice's rounds.
struct KernelTally {
  std::uint64_t and_words = 0, and_calls = 0, and3_words = 0, and3_calls = 0;
  std::uint64_t isect_elems = 0, isect_calls = 0, gallop_calls = 0;

  static KernelTally read() {
    const auto& kc = obs::g_kernel_counters;
    const auto el = [&](obs::KernelOp op) { return kc.elements[static_cast<std::size_t>(op)].value(); };
    const auto in = [&](obs::KernelOp op) { return kc.invocations[static_cast<std::size_t>(op)].value(); };
    using K = obs::KernelOp;
    KernelTally k;
    k.and_words = el(K::kAndPopcount);
    k.and_calls = in(K::kAndPopcount);
    k.and3_words = el(K::kAnd3Popcount);
    k.and3_calls = in(K::kAnd3Popcount);
    for (K op : {K::kIntersectCountMerge, K::kIntersectCountGallop, K::kIntersectIntoMerge,
                 K::kIntersectIntoGallop}) {
      k.isect_elems += el(op);
      k.isect_calls += in(op);
    }
    k.gallop_calls = in(K::kIntersectCountGallop) + in(K::kIntersectIntoGallop);
    return k;
  }
};

Result run_mine(const Args& a) {
  Result res;
  constexpr int kThreads = 2;
  util::set_threads(kThreads);
  const std::vector<int> round = mine_round(a.workload);
  std::vector<int> per_round(kMineTypes, 0), present;
  for (int t : round) ++per_round[static_cast<std::size_t>(t)];
  for (int t = 0; t < kMineTypes; ++t) {
    if (per_round[static_cast<std::size_t>(t)] > 0) present.push_back(t);
  }
  std::vector<double> busy(kMineTypes, 0.0), count(kMineTypes, 0.0);
  std::vector<std::optional<engine::QueryResult>> ref(kMineTypes);
  std::optional<engine::QueryResult> setup_ref[2];  // first tc, first cc
  SliceSeries series;
  std::vector<double> probes, gen_s;
  double rel_error = 0;
  std::uint64_t rounds_run = 0;

  // Traced-only accumulators.
  std::vector<double> algo_ms[kMineTypes], engine_self_ms, build_s;
  std::vector<double> and_words, and3_words, isect_elems, gallop_share, ns_word, ns_elem;
  double tc_par_eff = 0, cc4_par_eff = 0;
  bool par_measured = false;

  double deadline = 0;
  int slice = 0;
  double slice_len = 0;
  for (;; ++slice) {
    const double slice_start = now_s();
    if (slice > 1 && slice_start + 0.6 * slice_len > deadline) break;
    const bool warm = slice == 0;
    const bool traced = a.trace && slice % 2 == 1;
    g_tracer.on = traced;
    probes.push_back(host_probe_ms());
    reset_peak_rss();

    // Set-up probe: generate, construct, first tc + cc (both lazy sketch builds).
    StealMeter steal;
    steal.start();
    const double t0 = now_s();
    CsrGraph g0 = make_graph(a);
    gen_s.push_back(now_s() - t0);
    auto eng = std::make_unique<engine::Engine>(std::move(g0));
    std::optional<engine::QueryResult> first[2];
    try {
      first[0] = eng->run(kMine[kTc].q);
      first[1] = eng->run(kMine[kCc].q);
    } catch (const std::exception& e) {
      res.fail(std::string("set-up query threw: ") + e.what());
    }
    const double setup = now_s() - t0;
    if (!warm) series.add("setup_s", setup, steal.share(), traced);
    const CsrGraph& g = eng->graph();
    for (int i = 0; i < 2; ++i) {
      if (warm) setup_ref[i] = first[i];
      ++res.attempted;
      if (!first[i] || !setup_ref[i] || !same_answer(*first[i], *setup_ref[i], false)) {
        res.fail(std::string(kMine[i].name) + " set-up answer differs from the warm-up slice");
      }
    }
    if (warm) {
      res.ctx("graph_n", static_cast<double>(g.num_vertices()));
      res.ctx("graph_m", static_cast<double>(g.num_edges()));
      res.ctx("graph_dmax", static_cast<double>(g.max_degree()));
    }

    // Mining rounds: one in the warm-up slice, else until round_s is spent.
    const KernelTally k0 = KernelTally::read();
    std::vector<double> slice_busy(kMineTypes, 0.0), slice_count(kMineTypes, 0.0);
    std::vector<std::uint64_t> first_span(kMineTypes, 0), first_req(kMineTypes, 0);
    std::vector<double> slice_lat_us;
    int rounds = 0;
    steal.start();
    const double r0 = now_s();
    do {
      for (int t : round) {
        const auto ti = static_cast<std::size_t>(t);
        std::optional<engine::QueryResult> r;
        const std::uint64_t req = g_tracer.new_request();
        std::uint64_t id = 0;
        const double dt = timed_span("client.query", 0, req, [&] {
          try {
            r = eng->run(kMine[t].q);
          } catch (const std::exception& e) {
            res.fail(std::string(kMine[t].name) + " threw: " + e.what());
          }
        }, &id);
        if (first_span[ti] == 0) {
          first_span[ti] = id;
          first_req[ti] = req;
        }
        ++res.attempted;
        if (!r) continue;
        if (warm && !ref[ti]) {
          ref[ti] = r;
          if (g_inject_fault && t == round[0]) ref[ti]->value += 1;
        }
        if (!ref[ti]) continue;
        if (!same_answer(*r, *ref[ti], kMine[t].integer)) {
          res.fail(std::string(kMine[t].name) + " answer differs from the warm-up round");
        }
        slice_busy[ti] += dt;
        slice_count[ti] += 1;
        if (!warm) slice_lat_us.push_back(dt * 1e6);
      }
      ++rounds;
    } while (!warm && now_s() - r0 < a.round_s);
    const double rounds_steal = steal.share();
    const KernelTally k1 = KernelTally::read();
    if (!warm) {
      rounds_run += static_cast<std::uint64_t>(rounds);
      // Mining throughput: the geometric mean over the workload's types of
      // queries per busy second, so each type moves it by the same share of
      // its own change.
      double lg = 0;
      for (int t : present) {
        const auto ti = static_cast<std::size_t>(t);
        busy[ti] += slice_busy[ti];
        count[ti] += slice_count[ti];
        lg += std::log(slice_count[ti] / slice_busy[ti]);
      }
      series.add("qps", std::exp(lg / static_cast<double>(present.size())), rounds_steal, traced);
      for (const double v : slice_lat_us) series.add("lat_us", v, rounds_steal, traced);
      series.add("rss_mb", read_proc(getpid()).hwm_mb, 0.0, traced);
      std::string per_type;
      for (int t : present) {
        const auto ti = static_cast<std::size_t>(t);
        per_type += std::string(" ") + kMine[t].name + " " + fmt(slice_busy[ti] / slice_count[ti] * 1e3);
      }
      std::fprintf(stderr, "pb_driver: slice %d%s setup %.3fs rounds %d ms/query [%s ] probe %.2fms\n",
                   slice, traced ? " (traced)" : "", setup, rounds, per_type.c_str(), probes.back());
    }
    if (traced) {
      // Per round; a kernel the workload never calls is not exercised.
      const double n = rounds;
      if (k1.and_calls > k0.and_calls) {
        and_words.push_back(static_cast<double>(k1.and_words - k0.and_words) / n);
      }
      if (k1.and3_calls > k0.and3_calls) {
        and3_words.push_back(static_cast<double>(k1.and3_words - k0.and3_words) / n);
      }
      if (k1.isect_calls > k0.isect_calls) {
        isect_elems.push_back(static_cast<double>(k1.isect_elems - k0.isect_elems) / n);
        gallop_share.push_back(static_cast<double>(k1.gallop_calls - k0.gallop_calls) /
                               static_cast<double>(k1.isect_calls - k0.isect_calls));
      }

      // Ladder replays between slices: build the substrates the engine uses.
      io::SubstrateSet set;
      const SketchKind kinds[] = {SketchKind::kBloomFilter};
      build_s.push_back(timed_span("core.build_substrates", 0, 0, [&] {
        set = io::build_substrates(g, kinds, true, true);
      }));
      const ProbGraph& sym = set.sketches[0];
      const ProbGraph& dag_pg = set.sketches[1];
      const CsrGraph& dag = *set.dag;
      // Direct algorithm calls, children of the slice's first client span of
      // the same type.
      double direct[kMineTypes] = {};
      double self_ms = 0;
      for (int t : present) {
        const auto ti = static_cast<std::size_t>(t);
        double v = 0;
        direct[ti] = timed_span(kMine[t].span, first_span[ti], first_req[ti],
                                [&] { v = direct_call(t, g, sym, dag_pg, dag); });
        algo_ms[ti].push_back(direct[ti] * 1e3);
        self_ms += (slice_busy[ti] / slice_count[ti] - direct[ti]) * 1e3 * per_round[ti];
        ++res.attempted;
        const double want = answer_of(*ref[ti]);
        if (std::abs(v - want) > 1e-9 * std::abs(want)) {
          res.fail(std::string("direct algo::") + kMine[t].name + " disagrees with Engine::run");
        }
      }
      engine_self_ms.push_back(self_ms);
      if (!par_measured) {
        par_measured = true;
        util::ThreadScope one(1);
        if (per_round[kTc] > 0) {
          tc_par_eff = timed_span("algorithms.tc_1thread", 0, 0, [&] {
            (void)algo::triangle_count_probgraph(dag_pg);
          }) / (kThreads * direct[kTc]);
        }
        if (per_round[k4cc] > 0) {
          cc4_par_eff = timed_span("algorithms.4cc_1thread", 0, 0, [&] {
            (void)algo::four_clique_count_probgraph(dag_pg);
          }) / (kThreads * direct[k4cc]);
        }
      }
      // Kernels on the rows tc and tc exact touch.
      std::uint64_t acc = 0;
      if (per_round[kTc] > 0) {
        std::uint64_t nwords = 0;
        const double tw = timed_span("kernels.and_popcount_dag", first_span[kTc], first_req[kTc], [&] {
          for (VertexId v = 0; v < dag.num_vertices(); ++v) {
            for (const VertexId u : dag.neighbors(v)) {
              acc += kernels::and_popcount(dag_pg.bf_words(v), dag_pg.bf_words(u));
              nwords += dag_pg.bf_words(v).size();
            }
          }
        });
        if (nwords > 0) ns_word.push_back(tw * 1e9 / static_cast<double>(nwords));
      }
      if (per_round[kTcExact] > 0) {
        std::uint64_t nelems = 0;
        const double te = timed_span("kernels.intersect_dag", first_span[kTcExact], first_req[kTcExact], [&] {
          for (VertexId v = 0; v < dag.num_vertices(); ++v) {
            for (const VertexId u : dag.neighbors(v)) {
              acc += kernels::intersect_count(dag.neighbors(v), dag.neighbors(u));
              nelems += dag.degree(v) + dag.degree(u);
            }
          }
        });
        if (nelems > 0) ns_elem.push_back(te * 1e9 / static_cast<double>(nelems));
      }
      g_sink = acc;
    }

    if (warm) {
      if (std::any_of(present.begin(), present.end(), [&](int t) { return !ref[static_cast<std::size_t>(t)]; })) {
        throw std::runtime_error("the warm-up round did not answer every query type");
      }
      // rel_error against the exact escapes, outside the timed rounds.
      double sum = 0;
      int n = 0;
      for (int t : present) {
        if (kMine[t].integer) continue;
        const double ex = answer_of(eng->run(exact_escape(t)));
        sum += std::abs(answer_of(*ref[static_cast<std::size_t>(t)]) - ex) / ex;
        ++n;
      }
      rel_error = sum / n;
      deadline = now_s() + a.seconds;
    }
    slice_len = now_s() - slice_start;
  }
  g_tracer.on = false;
  res.ctx("slices", static_cast<double>(slice));
  res.ctx("samples.slices_per_metric", static_cast<double>(slice - 1));
  res.ctx("samples.rounds", static_cast<double>(rounds_run));
  res.ctx("samples.latency", static_cast<double>(series.clean("lat_us").size()));
  for (int t : present) {
    res.ctx(std::string("samples.qps.") + kMine[t].name, count[static_cast<std::size_t>(t)]);
  }
  res.ctx("host_probe_ms.median", median(probes));
  res.ctx("host_probe_ms.max", quantile(probes, 1.0));
  res.ctx("host_probe_ms.min", quantile(probes, 0.0));
  res.ctx("omp_team.mine", static_cast<double>(kThreads));

  if (!a.trace) {
    res.set("setup_s", series.value("setup_s"), "s");
    res.set("rss_mb", series.max("rss_mb"), "MB");  // the run's peak
    res.set("rel_error", rel_error, "fraction");
    res.set("qps", series.value("qps"), "1/s");
    // Over the mining queries of the run's clean slices: p50 falls among the
    // round's fast majority type, p99 among its slow minority type.
    res.set("p50_us", series.pooled("lat_us", 0.50), "us");
    res.set("p99_us", series.pooled("lat_us", 0.99), "us");
    return res;
  }
  // Per-layer metrics (traced run): only what this workload measured.
  res.set("graph.gen_s", median(gen_s), "s");
  res.set("core.build_s", median(build_s), "s");
  for (int t : present) {
    const auto ti = static_cast<std::size_t>(t);
    res.set(std::string("algorithms.") + kMine[t].name + "_ms", median(algo_ms[ti]), "ms");
    res.set(std::string("engine.") + kMine[t].name + "_ms", busy[ti] / count[ti] * 1e3, "ms");
  }
  if (per_round[kTc] > 0) res.set("algorithms.tc_par_eff", tc_par_eff, "fraction");
  if (per_round[k4cc] > 0) res.set("algorithms.4cc_par_eff", cc4_par_eff, "fraction");
  res.set("engine.self_ms", median(engine_self_ms), "ms");
  if (!and_words.empty()) res.set("kernels.and_popcount_words", median(and_words), "count");
  if (!and3_words.empty()) res.set("kernels.and3_popcount_words", median(and3_words), "count");
  if (!isect_elems.empty()) {
    res.set("kernels.intersect_elems", median(isect_elems), "count");
    res.set("kernels.gallop_share", median(gallop_share), "fraction");
  }
  if (!ns_word.empty()) res.set("kernels.and_popcount_ns_per_word", median(ns_word), "ns");
  if (!ns_elem.empty()) res.set("kernels.intersect_ns_per_elem", median(ns_elem), "ns");
  set_trace_deltas(res, series);
  for (const auto& [name, q] : {std::pair<const char*, double>{"trace.p50_us_delta", 0.5},
                                {"trace.p99_us_delta", 0.99}}) {
    res.set(name, series.pooled("lat_us", q, 1) - series.pooled("lat_us", q, 0), "us");
  }
  return res;
}

// ---------------------------------------------------------------- serve / live

struct ServerProc {
  pid_t pid = -1;
  int port = 0;
};

ServerProc start_server(const Args& a, const std::string& snap, const std::string& delta,
                        const std::string& err_path) {
  std::vector<std::string> argv = {a.pgtool, "serve", snap, "--listen", "0", "--threads", "1"};
  if (a.workload == "live") {
    for (const char* x : {"--live", "--delta-log", delta.c_str()}) {
      argv.emplace_back(x);
    }
  }
  ServerProc sp;
  sp.pid = spawn(argv, err_path);
  g_children.push_back(sp.pid);
  const char* key = "listening on 127.0.0.1:";
  const double until = now_s() + 60;
  while (now_s() < until) {
    const std::string err = slurp(err_path);
    const std::size_t p = err.find(key);
    if (p != std::string::npos) {
      sp.port = std::atoi(err.c_str() + p + std::strlen(key));
      if (sp.port > 0) return sp;
    }
    int status = 0;
    if (waitpid(sp.pid, &status, WNOHANG) == sp.pid) {
      g_children.pop_back();
      throw std::runtime_error("pgtool serve exited at start-up: " + err);
    }
    usleep(500);
  }
  throw std::runtime_error("pgtool serve did not report its port");
}

void stop_server(ServerProc& sp) {
  stop_child(sp.pid);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), sp.pid), g_children.end());
  sp.pid = -1;
}

struct ReaderOut {
  // Per request written after the warm-up: latency if no seal was
  // outstanding while it was in flight, else in overlap_us.
  std::vector<float> lat_us;
  std::vector<float> overlap_us;
  std::vector<double> burst_us;       // sampled bursts
  std::vector<PendingBurst> sampled;
  std::uint64_t sent = 0, replies = 0, failed = 0, bytes = 0;
  std::string failure;
};

// The writer of `live`, on the control connection: during a sub-window it
// stages one batch (`update insert|delete ...`) and seals it, beside the
// readers.
struct SealWriter {
  enum State { kIdle, kWaiting, kStaging, kSealing, kDone };
  Conn* conn = nullptr;
  State state = kIdle;
  std::string update;      // the staging line
  std::int64_t s0 = 0, s1 = 0;  // `update seal` written, `sealed` read
  std::string staged, sealed;   // the two replies
  bool lost = false;
};

// One reader connection of the load generator: a closed loop that writes a
// burst of requests, reads every reply, and writes the next burst.
struct ReaderConn {
  Conn* conn = nullptr;
  std::size_t idx = 0;     // next request of the pool
  std::size_t first = 0;   // first request of the burst in flight
  int outstanding = 0;     // replies still due for the burst in flight
  std::int64_t b0 = 0;     // when the burst was written
  std::uint64_t bursts = 0;
  bool done = false, lost = false;
  std::string bytes, wire;  // the burst in flight and its replies (traced)
  ReaderOut out;            // of the current sub-window
};

// The load generator: one thread drives every reader connection through
// poll(), so the client never competes with itself for a CPU. Each call of
// run() is one sub-window: the readers run closed loops until it ends.
struct LoadGen {
  const std::vector<Request>* reqs = nullptr;
  const std::vector<std::string>* lines = nullptr;
  const std::vector<std::string>* expected = nullptr;  // replies of the served generation
  // `live`: replies of the generation the writer's seal makes. A reply read
  // after `update seal` was written may come from either generation; a
  // burst written after `sealed` was read must come from the new one.
  const std::vector<std::string>* expected_next = nullptr;
  int burst = 8;
  double warm_until = 0, window_end = 0;
  // With a writer, the counted part starts when its seal ends and lasts
  // sub_s; until then warm_until and window_end are open.
  double sub_s = 0;
  bool traced = false;
  std::vector<ReaderConn> readers;
  SealWriter writer;

  void send_burst(ReaderConn& r) {
    r.bytes.clear();
    r.wire.clear();
    r.first = r.idx;
    for (int k = 0; k < burst; ++k) {
      r.bytes += (*lines)[(r.first + static_cast<std::size_t>(k)) % reqs->size()];
      r.bytes += '\n';
    }
    r.idx = (r.first + static_cast<std::size_t>(burst)) % reqs->size();
    r.b0 = now_ns();
    r.out.sent += static_cast<std::uint64_t>(burst);
    r.outstanding = burst;
    if (!r.conn->send_all(r.bytes)) lose(r, "send failed (disconnect)");
  }

  void lose(ReaderConn& r, const char* why) {
    r.out.failed += static_cast<std::uint64_t>(r.outstanding);
    if (r.out.failure.empty()) r.out.failure = why;
    r.outstanding = 0;
    r.done = r.lost = true;
  }

  void on_reply(ReaderConn& r, const std::string& reply) {
    const std::int64_t t = now_ns();
    const std::size_t i = (r.first + static_cast<std::size_t>(burst - r.outstanding)) % reqs->size();
    --r.outstanding;
    ++r.out.replies;
    r.out.bytes += (*lines)[i].size() + reply.size() + 2;
    const SealWriter& w = writer;
    const bool swapped = w.state == SealWriter::kDone && r.b0 > w.s1;
    const bool either = !swapped && (w.state == SealWriter::kSealing || w.state == SealWriter::kDone);
    const bool ok = swapped ? reply == (*expected_next)[i]
                            : reply == (*expected)[i] || (either && reply == (*expected_next)[i]);
    if (!ok) {
      ++r.out.failed;
      if (r.out.failure.empty()) r.out.failure = "reply check failed: " + reply.substr(0, 120);
    }
    const auto us = static_cast<float>(static_cast<double>(t - r.b0) * 1e-3);
    if (w.s0 != 0 && t >= w.s0 && (w.s1 == 0 || r.b0 <= w.s1)) {
      r.out.overlap_us.push_back(us);
    } else if (static_cast<double>(r.b0) * 1e-9 >= warm_until) {
      r.out.lat_us.push_back(us);
    }
    if (traced) r.wire += reply + "\n";
    if (r.outstanding == 0) {
      if (traced && r.bursts % 1024 == 0) {
        const std::uint64_t req = g_tracer.new_request();
        PendingBurst pb;
        for (int k = 0; k < burst; ++k) {
          pb.burst.push_back(&(*reqs)[(r.first + static_cast<std::size_t>(k)) % reqs->size()]);
        }
        pb.bytes = r.bytes;
        pb.expected = r.wire;
        pb.span = g_tracer.record("client.burst", 0, req, r.b0, t);
        pb.req = req;
        r.out.sampled.push_back(std::move(pb));
        r.out.burst_us.push_back(static_cast<double>(t - r.b0) * 1e-3);
      }
      ++r.bursts;
    }
  }

  // The writer's next step once its reply `line` has been read.
  void on_writer_reply(const std::string& line) {
    SealWriter& w = writer;
    if (w.state == SealWriter::kStaging) {
      w.staged = line;
      w.s0 = now_ns();
      w.state = SealWriter::kSealing;
      if (!w.conn->send_all("update seal\n")) w.lost = true;
    } else {
      w.sealed = line;
      w.s1 = now_ns();
      w.state = SealWriter::kDone;
      warm_until = static_cast<double>(w.s1) * 1e-9;
      window_end = warm_until + sub_s;
    }
  }

  bool writer_waits() const {
    return !writer.lost && (writer.state == SealWriter::kStaging || writer.state == SealWriter::kSealing);
  }

  // One sub-window: the readers run closed loops until window_end. A
  // waiting writer stages and seals at once, and the counted part of the
  // window follows its seal.
  void run() {
    for (ReaderConn& r : readers) r.done = r.lost;
    std::string line;
    std::vector<pollfd> fds;
    for (;;) {
      const double now = now_s();
      const bool over = now >= window_end;
      bool active = false;
      for (ReaderConn& r : readers) {
        if (r.outstanding == 0 && !r.done) {
          if (over) r.done = true;
          else send_burst(r);
        }
        active = active || !r.done;
      }
      if (writer.lost && window_end > now + sub_s) window_end = now;  // no seal to wait for
      if (writer.state == SealWriter::kWaiting) {
        writer.state = SealWriter::kStaging;
        if (!writer.conn->send_all(writer.update + "\n")) writer.lost = true;
      }
      if (!active && !writer_waits()) return;
      fds.clear();
      for (const ReaderConn& r : readers) {
        if (r.outstanding > 0) fds.push_back({r.conn->fd(), POLLIN, 0});
      }
      if (writer_waits()) fds.push_back({writer.conn->fd(), POLLIN, 0});
      if (fds.empty()) continue;
      // No timeout: every fd polled has a reply due, and a timed wait would
      // arm a timer per burst inside the measured loop.
      const int pr = ::poll(fds.data(), fds.size(), -1);
      if (pr < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (pr <= 0) continue;
      std::size_t f = 0;
      for (ReaderConn& r : readers) {
        if (r.outstanding == 0) continue;
        const short ev = fds[f++].revents;
        if (ev == 0) continue;
        if (!r.conn->fill()) {
          lose(r, "missing reply (disconnect)");
          continue;
        }
        while (r.outstanding > 0 && r.conn->next_line(line)) on_reply(r, line);
      }
      if (f < fds.size() && fds[f].revents != 0) {
        if (!writer.conn->fill()) {
          writer.lost = true;
          continue;
        }
        while (writer_waits() && writer.conn->next_line(line)) on_writer_reply(line);
      }
    }
  }
};

std::string reply_field(const std::string& reply, const std::string& key) {
  const std::size_t p = reply.find("\t" + key + "=");
  if (p == std::string::npos) return "";
  const std::size_t b = p + key.size() + 2;
  return reply.substr(b, reply.find('\t', b) - b);
}

Result run_serving(const Args& a) {
  Result res;
  const bool live = a.workload == "live";
  const std::string edges = a.work + "/edges.el";
  const std::string snap = a.work + "/graph.pgs";
  const CsrGraph g = make_graph(a);
  io::write_edge_list(g, edges);
  const int serving_cpu = pin_to_one_cpu();
  res.ctx("serving_cpu", static_cast<double>(serving_cpu));
  StealMeter run_steal;
  run_steal.cpu = serving_cpu;
  run_steal.start();
  res.ctx("graph_n", static_cast<double>(g.num_vertices()));
  res.ctx("graph_m", static_cast<double>(g.num_edges()));
  res.ctx("graph_dmax", static_cast<double>(g.max_degree()));
  const std::vector<Request> reqs = make_requests(g, a.seed ^ 0x5eedu, 512, a.pairs_per_request);
  const std::vector<Request> audit = make_requests(g, a.seed ^ 0xa0d17u, 128, a.pairs_per_request);
  const auto batches = make_batches(g, a.seed ^ 0xba7c4u, 16, a.batch_edges);
  std::vector<std::string> lines;
  for (const Request& r : reqs) lines.push_back(request_line(r, false));
  // `live`: the replies after a seal inserts batch `bi` into the base,
  // computed in process (apply, save, map) before the seal is sent. The
  // delete seal that follows must give the base replies back.
  std::map<int, std::vector<std::string>> inserted;
  const auto expected_with = [&](int bi) -> const std::vector<std::string>& {
    auto it = inserted.find(bi);
    if (it != inserted.end()) return it->second;
    live::DeltaBatch batch;
    batch.inserts = batches[static_cast<std::size_t>(bi)];
    const std::string tmp = a.work + "/expected.pgs";
    {
      const io::Snapshot base = io::load_snapshot(snap);
      io::save_snapshot(tmp, live::apply_batch(base, batch).substrates);
    }
    engine::Engine e = engine::Engine::from_snapshot(tmp);
    std::vector<std::string> v;
    for (const Request& r : reqs) v.push_back(engine::format_reply(e.run(pair_query(r, false))));
    std::remove(tmp.c_str());
    return inserted.emplace(bi, std::move(v)).first->second;
  };

  SliceSeries series;
  // Means, not medians: the host alternates between two speeds every few
  // seconds, so per-sub-window figures are bimodal and a median would flip
  // with the share of the run spent at either speed.
  series.by_mean = {"qps", "p50_us", "p99_us"};
  // On one CPU steal stays about 1 %, and sub-windows at up to a few per
  // cent read no slower; halving them by steal would only halve the sample.
  series.steal_floor = 0.03;
  std::vector<double> probes;
  std::uint64_t latency_samples = 0, req_bytes = 0, all_replies = 0, all_reader_requests = 0;
  double err_replies = 0, rejects = 0, csw = 0, cpu = 0;
  double est_sum = 0, exact_sum = 0;
  std::vector<double> seal_ms, burst_us;
  std::vector<float> overlap_us;  // reader requests in flight during a seal
  std::uint64_t patched = 0, rebuilt = 0;
  std::vector<double> apply_ms, save_ms, load_ms, gen_mb, cold_rebuilds, read_s, build_s, pin_ns;
  PairLadder ladder;
  double snapshot_bytes = 0;

  const double deadline = now_s() + a.seconds;
  double slice_len = 0;
  int slice = 0;
  for (;; ++slice) {
    const double slice_start = now_s();
    if (slice > 1 && slice_start + 0.6 * slice_len > deadline) break;
    const bool traced = a.trace && slice % 2 == 1;
    g_tracer.on = traced;
    probes.push_back(host_probe_ms());
    const std::string delta = a.work + "/delta-" + std::to_string(slice) + ".pgd";
    std::remove(delta.c_str());

    // Set-up probe: build the snapshot from the edge list, start the server,
    // first `stats` reply. The old file is removed first: on ext4, writing
    // over a file truncated to zero flushes it to disk at close, which
    // would time the disk instead of the build.
    std::remove(snap.c_str());
    StealMeter steal;
    steal.cpu = serving_cpu;
    steal.start();
    const double t0 = now_s();
    const pid_t b = spawn({a.pgtool, "build", edges, "-o", snap, "--orient", "both"},
                          a.work + "/build.err");
    g_children.push_back(b);
    const int rc = wait_for(b, 120);
    g_children.pop_back();
    if (rc != 0) throw std::runtime_error("pgtool build failed: " + slurp(a.work + "/build.err"));
    const double t_built = now_s();
    ServerProc sp = start_server(a, snap, delta, a.work + "/serve.err");
    auto control = std::make_unique<Conn>(sp.port);
    const std::string stats = control->ask("stats");
    const double setup = now_s() - t0;
    ++res.attempted;
    if (stats.rfind("ok\tstats", 0) != 0) res.fail("stats reply: " + stats);
    series.add("setup_s", setup, steal.share(), traced);
    struct stat st {};
    if (::stat(snap.c_str(), &st) == 0) snapshot_bytes = static_cast<double>(st.st_size);

    // Expected replies, computed in-process on the same file.
    engine::Engine local = engine::Engine::from_snapshot(snap);
    std::vector<std::string> expected;
    for (const Request& r : reqs) expected.push_back(engine::format_reply(local.run(pair_query(r, false))));

    // Load window: `subs` sub-windows of sub_s. Rates and percentiles are
    // per sub-window, and the run reports their means over the run. In
    // `live` each sub-window starts with a seal beside the reader: the
    // writer inserts a batch and seals, or deletes it and seals, so every
    // second seal returns the graph to the base. Replies during the seal
    // are checked against both generations; the counted part starts with
    // the `sealed` reply, because requests that overlap a seal on one CPU
    // wait out the kernel's scheduling slice, not the program.
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < a.connections; ++c) conns.push_back(std::make_unique<Conn>(sp.port));
    const std::string m0 = control->ask("metrics");
    const ProcStats p0 = read_proc(sp.pid);
    LoadGen lg;
    lg.reqs = &reqs;
    lg.lines = &lines;
    lg.expected = &expected;
    lg.burst = a.burst;
    lg.traced = traced;
    for (int c = 0; c < a.connections; ++c) {
      ReaderConn r;
      r.conn = conns[static_cast<std::size_t>(c)].get();
      r.idx = static_cast<std::size_t>(c) * 256 + static_cast<std::size_t>(slice) * 31;
      lg.readers.push_back(std::move(r));
    }
    struct SealSpan {
      std::uint64_t span, req;
      int batch;
    };
    std::vector<SealSpan> slice_seal_spans;
    std::vector<ReaderOut> outs;
    int gen = 1, seals = 0;
    std::string subs_txt, seals_txt;
    for (int k = 0; k < a.subs; ++k) {
      const int bi = (slice * a.subs / 2 + k / 2) % static_cast<int>(batches.size());
      const std::vector<std::string>* next = nullptr;
      if (live) {
        const bool insert = k % 2 == 0;
        next = insert ? &expected_with(bi) : &expected;
        lg.writer = SealWriter{};
        lg.writer.conn = control.get();
        lg.writer.update = update_line(insert ? "insert" : "delete", batches[static_cast<std::size_t>(bi)]);
        lg.writer.state = SealWriter::kWaiting;
        lg.expected_next = next;
      }
      // The first sub-window of a fresh server starts with warm_s that is
      // not counted; in `live` every sub-window starts with its seal.
      lg.warm_until = now_s() + (k == 0 ? a.warm_s : 0.0);
      lg.window_end = lg.warm_until + a.sub_s;
      if (live) {
        lg.warm_until = lg.window_end = 1e300;
        lg.sub_s = a.sub_s;
      }
      steal.start();
      lg.run();
      const double sub_steal = steal.share();
      std::vector<float> lat;
      std::size_t overlapped = 0;
      for (ReaderConn& r : lg.readers) {
        lat.insert(lat.end(), r.out.lat_us.begin(), r.out.lat_us.end());
        overlap_us.insert(overlap_us.end(), r.out.overlap_us.begin(), r.out.overlap_us.end());
        overlapped += r.out.overlap_us.size();
        outs.push_back(std::move(r.out));
        r.out = ReaderOut{};
      }
      // Requests written after the warm-up, all answered by now.
      latency_samples += lat.size();
      all_reader_requests += lat.size() + overlapped;
      const double qps = static_cast<double>(lat.size()) / a.sub_s;
      const double p50 = big_quantile(lat, 0.50), p99 = big_quantile(lat, 0.99);
      series.add("qps", qps, sub_steal, traced);
      series.add("p50_us", p50, sub_steal, traced);
      series.add("p99_us", p99, sub_steal, traced);
      char buf[80];
      std::snprintf(buf, sizeof buf, " %.0f/%.0f/%.0f@%.1f%%", qps, p50, p99, 100 * sub_steal);
      subs_txt += buf;
      if (!live) continue;
      const SealWriter& w = lg.writer;
      res.attempted += 2;
      if (w.staged.rfind("ok\tupdate\tstaged=", 0) != 0) res.fail("update reply: " + w.staged.substr(0, 120));
      if (w.state != SealWriter::kDone || w.sealed.rfind("ok\tupdate\tsealed", 0) != 0) {
        res.fail("seal reply: " + w.sealed.substr(0, 120));
      } else {
        ++seals;
        seal_ms.push_back(static_cast<double>(w.s1 - w.s0) * 1e-6);
        seals_txt += " " + fmt(std::round(seal_ms.back() * 10) / 10);
        if (traced) {
          const std::uint64_t req = g_tracer.new_request();
          slice_seal_spans.push_back({g_tracer.record("client.seal", 0, req, w.s0, w.s1), req, bi});
        }
        gen = std::atoi(reply_field(w.sealed, "generation").c_str());
        patched += std::strtoull(reply_field(w.sealed, "patched").c_str(), nullptr, 10);
        rebuilt += std::strtoull(reply_field(w.sealed, "rebuilt").c_str(), nullptr, 10);
      }
      lg.expected = next;
      lg.expected_next = nullptr;
      lg.writer.state = SealWriter::kIdle;
    }
    const ProcStats p1 = read_proc(sp.pid);
    const std::string m1 = control->ask("metrics");
    conns.clear();

    for (ReaderOut& o : outs) {
      res.attempted += o.sent;
      if (o.failed) {
        res.failed += o.failed;
        res.failures.push_back(o.failure);
      }
      all_replies += o.replies;
      req_bytes += o.bytes;
      burst_us.insert(burst_us.end(), o.burst_us.begin(), o.burst_us.end());
    }
    std::fprintf(stderr,
                 "pb_driver: slice %d%s setup %.3fs qps/p50_us/p99_us [%s ] probe %.2fms "
                 "seals_ms [%s ]\n",
                 slice, traced ? " (traced)" : "", setup, subs_txt.c_str(), probes.back(), seals_txt.c_str());
    err_replies += metric_sum(m1, "probgraph_session_errors_total") -
                   metric_sum(m0, "probgraph_session_errors_total");
    rejects += metric_sum(m1, "probgraph_connections_rejected_total") -
               metric_sum(m0, "probgraph_connections_rejected_total");

    csw += p1.csw - p0.csw;
    cpu += p1.cpu_us - p0.cpu_us;

    // Audit, outside the window, on the generation being served.
    const std::string gen_file = gen > 1 ? snap + ".gen" + std::to_string(gen) : snap;
    engine::Engine served = engine::Engine::from_snapshot(gen_file);
    for (const Request& r : audit) {
      const std::string est = control->ask(request_line(r, false));
      const std::string ex = control->ask(request_line(r, true));
      res.attempted += 2;
      std::string want = engine::format_reply(served.run(pair_query(r, false)));
      if (g_inject_fault && &r == &audit.front()) want += "!";
      if (est != want) {
        res.fail("audit: sketch reply differs from the in-process answer");
      }
      if (ex != engine::format_reply(served.run(pair_query(r, true)))) {
        res.fail("audit: exact reply differs from the in-process answer");
      }
      if (slice == 0) {
        const auto ve = reply_values(est), vx = reply_values(ex);
        for (std::size_t i = 0; i < std::min(ve.size(), vx.size()); ++i) {
          est_sum += std::abs(ve[i] - vx[i]);
          exact_sum += vx[i];
        }
      }
    }
    const double rss = read_proc(sp.pid).hwm_mb;
    series.add("rss_mb", rss, 0.0, traced);
    std::fprintf(stderr, "pb_driver: slice %d rss %.1f MB build %.3fs\n", slice, rss, t_built - t0);
    if (seals > 0) {
      struct stat gs {}, ds {};
      ::stat(gen_file.c_str(), &gs);
      ::stat(delta.c_str(), &ds);
      gen_mb.push_back((static_cast<double>(gs.st_size) +
                        static_cast<double>(ds.st_size) / seals) / 1e6);
    }
    control.reset();
    stop_server(sp);
    std::remove(delta.c_str());

    if (traced) {
      // Ladder replays between slices.
      CsrGraph read_g;
      read_s.push_back(timed_span("graph.read_edge_list", 0, 0, [&] { read_g = io::read_edge_list(edges); }));
      const SketchKind kinds[] = {SketchKind::kBloomFilter};
      io::SubstrateSet set;
      build_s.push_back(timed_span("core.build_substrates", 0, 0, [&] {
        set = io::build_substrates(read_g, kinds, true, true);
      }));
      std::optional<io::Snapshot> mapped;
      load_ms.push_back(timed_span("io.load_snapshot", 0, 0, [&] { mapped.emplace(io::load_snapshot(snap)); }) * 1e3);
      const ProbGraph* sym = mapped->find_substrate(SketchKind::kBloomFilter, false);
      auto host = engine::make_session_host(local);
      ladder.eng = &local;
      ladder.sym = sym;
      ladder.host = host.get();
      for (ReaderOut& o : outs) {
        for (PendingBurst& pb : o.sampled) {
          if (live) {
            // Live wire replies came from whichever generation was current;
            // the replay runs on the base file, so compare with its answers.
            pb.expected.clear();
            for (const Request* r : pb.burst) {
              pb.expected += expected[static_cast<std::size_t>(r - reqs.data())] + "\n";
            }
          }
          for (int rep = 0; rep < kLadderReps; ++rep) {
            ladder.replay(pb.burst, pb.bytes, pb.expected, pb.span, pb.req, res);
          }
        }
      }
      if (live) {
        // Seal path: apply -> save -> load for the slice's insert and delete.
        io::Snapshot cur = io::load_snapshot(snap);
        int step = 0;
        for (const auto& [span, req, bi] : slice_seal_spans) {
          live::DeltaBatch batch;
          (step % 2 == 0 ? batch.inserts : batch.deletes) = batches[static_cast<std::size_t>(bi)];
          std::optional<live::UpdatedSnapshot> up;
          apply_ms.push_back(timed_span("live.apply_batch", span, req, [&] { up.emplace(live::apply_batch(cur, batch)); }) * 1e3);
          cold_rebuilds.push_back(static_cast<double>(up->stats.substrates_rebuilt));
          const std::string tmp = a.work + "/ladder-" + std::to_string(step % 2) + ".pgs";
          save_ms.push_back(timed_span("io.save_snapshot", span, req, [&] { io::save_snapshot(tmp, up->substrates); }) * 1e3);
          load_ms.push_back(timed_span("io.load_snapshot", span, req, [&] { cur = io::load_snapshot(tmp); }) * 1e3);
          ++step;
        }
        if (pin_ns.empty()) {
          // Pin + run versus a bare run of the same one-pair query.
          engine::LiveEngine le(snap);
          engine::LiveEngine::Reader rd(le);
          const engine::Query q = pair_query({reqs[0][0]}, false);
          for (int rep = 0; rep < 5; ++rep) {
            constexpr int kN = 20000;
            const std::int64_t a0 = now_ns();
            for (int i = 0; i < kN; ++i) {
              engine::LiveEngine::Reader::Pin pin(rd);
              (void)pin.engine().run(q);
            }
            const std::int64_t a1 = now_ns();
            for (int i = 0; i < kN; ++i) (void)local.run(q);
            const std::int64_t a2 = now_ns();
            pin_ns.push_back(static_cast<double>((a1 - a0) - (a2 - a1)) / kN);
          }
        }
      }
      ladder.host = nullptr;
    }
    slice_len = now_s() - slice_start;
  }
  g_tracer.on = false;

  res.ctx("slices", static_cast<double>(slice));
  res.ctx("snapshot_bytes", snapshot_bytes);
  res.ctx("samples.slices_per_metric", static_cast<double>(slice));
  res.ctx("samples.sub_windows_per_metric", static_cast<double>(slice * a.subs));
  res.ctx("samples.latency", static_cast<double>(latency_samples));
  res.ctx("samples.rel_error_pairs", static_cast<double>(audit.size() * a.pairs_per_request));
  res.ctx("samples.seal_ms", static_cast<double>(seal_ms.size()));
  res.ctx("host_probe_ms.median", median(probes));
  res.ctx("host_probe_ms.max", quantile(probes, 1.0));
  res.ctx("host_probe_ms.min", quantile(probes, 0.0));
  res.ctx("omp_team.server", 1.0);
  res.ctx("transport", "threads");
  res.ctx("reactor_workers", "none (threads transport)");
  res.ctx("samples.overlap", static_cast<double>(overlap_us.size()));
  res.ctx("serving_cpu_steal_pct", 100 * run_steal.share());
  res.ctx("connections", static_cast<double>(a.connections + 1));  // + the control connection

  const double rel_error = exact_sum > 0 ? est_sum / exact_sum : 0.0;
  if (!a.trace) {
    res.set("setup_s", series.value("setup_s"), "s");
    // The run's peak: per-slice peaks are bimodal in `live` (the allocator
    // keeps a seal's shadow copy or not), so a median would flip.
    res.set("rss_mb", series.max("rss_mb"), "MB");
    res.set("rel_error", rel_error, "fraction");
    res.set("qps", series.value("qps"), "1/s");
    res.set("p50_us", series.value("p50_us"), "us");
    res.set("p99_us", series.value("p99_us"), "us");
    return res;
  }
  const double q = static_cast<double>(std::max<std::uint64_t>(all_replies, 1));
  res.set("graph.load_s", median(read_s), "s");
  res.set("core.build_s", median(build_s), "s");
  ladder.report(res, a.burst);
  res.set("protocol.bytes_per_query", static_cast<double>(req_bytes) / q, "count");
  res.set("protocol.err_replies", err_replies, "count");
  res.set("net.self_us", median(burst_us) - median(ladder.session_us), "us");
  res.set("net.csw_per_query", csw / q, "count");
  res.set("net.cpu_us_per_query", cpu / q, "us");
  res.set("net.rejects", rejects, "count");
  res.set("io.load_ms", median(load_ms), "ms");
  set_trace_deltas(res, series);
  if (!live) return res;
  // The generation swap and the seal path: live only. A figure without
  // samples is left unset, and run.py reports it as not exercised.
  if (!pin_ns.empty()) res.set("generation.pin_ns", median(pin_ns), "ns");
  if (latency_samples > 0) {
    res.set("generation.overlap_share",
            static_cast<double>(overlap_us.size()) / static_cast<double>(all_reader_requests), "fraction");
  }
  if (!overlap_us.empty()) res.set("generation.overlap_p50_us", big_quantile(overlap_us, 0.5), "us");
  if (seal_ms.empty() || apply_ms.empty()) return res;
  const double seal = median(seal_ms);
  res.set("live.seal_ms", seal, "ms");
  res.set("live.apply_ms", median(apply_ms), "ms");
  if (patched + rebuilt > 0) {
    res.set("live.patched_share",
            static_cast<double>(patched) / static_cast<double>(patched + rebuilt), "fraction");
  }
  res.set("live.cold_rebuilds", median(cold_rebuilds), "count");
  res.set("io.save_ms", median(save_ms), "ms");
  if (!gen_mb.empty()) res.set("io.gen_mb", median(gen_mb), "MB");
  res.set("generation.seal_self_ms",
          seal - (median(apply_ms) + median(save_ms) + median(load_ms)), "ms");
  return res;
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const Args a = parse_args(argc, argv);
  ::mkdir(a.work.c_str(), 0755);
  std::signal(SIGPIPE, SIG_IGN);
  g_tracer.on = false;
  const auto steal0 = host_steal_ticks();
  Result res;
  try {
    res = is_serving(a) ? run_serving(a) : run_mine(a);
  } catch (const std::exception& e) {
    kill_children();
    std::fprintf(stderr, "pb_driver: %s\n", e.what());
    return 1;
  }
  kill_children();
  const auto steal1 = host_steal_ticks();
  if (steal1.second > steal0.second) {
    res.ctx("host_steal_pct",
            100.0 * (steal1.first - steal0.first) / (steal1.second - steal0.second));
  }
  res.ctx("workload", a.workload);
  res.ctx("seed", std::to_string(a.seed));
  res.ctx("seconds", a.seconds);
  res.ctx("trace", a.trace ? "1" : "0");
  res.ctx("compiler", PB_COMPILER);
  res.ctx("build_type", PB_BUILD_TYPE);
  res.ctx("kernel_level", kernels::level_name(kernels::active_level()));
  res.ctx("nproc", static_cast<double>(std::thread::hardware_concurrency()));
#if defined(PROBGRAPH_OBS) && PROBGRAPH_OBS
  res.ctx("obs", "on");
#else
  res.ctx("obs", "off");
#endif
  res.ctx("work_fs", fs_type(a.work));
  res.ctx("graph", "kron scale " + std::to_string(a.scale) + " edge factor " + fmt(a.edge_factor));
  if (a.trace) {
    g_tracer.write(a.spans);
    res.ctx("spans", static_cast<double>(g_tracer.size()));
    res.ctx("spans_file", a.spans);
  }
  for (const std::string& f : res.failures) std::fprintf(stderr, "pb_driver: FAILED: %s\n", f.c_str());

  std::string ctx = "{\"context\": {";
  bool first = true;
  for (const auto& [k, v] : res.context) {
    ctx += std::string(first ? "" : ", ") + "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  std::printf("%s}}\n", ctx.c_str());
  std::string out = "{\"correct\": " + std::string(res.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(res.attempted, 1)) +
                    ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  first = true;
  for (const auto& [k, v] : res.metrics) {
    out += std::string(first ? "" : ", ") + "\"" + k + "\": {\"value\": " + fmt(v.first) +
           ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
