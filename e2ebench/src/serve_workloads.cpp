// The workload that drives the real lrdq_serve daemon over its unix
// socket: serve_hit (closed loop over two connections with four queries
// outstanding on each, repeat queries of a pool pre-warmed into memory).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace e2e {

namespace {

namespace json = lrd::obs::json;

// The pool the set-up pre-warms, its popularity, and the client
// connections. The Zipf exponent is an assumption of this benchmark, not
// a figure taken from a query log.
constexpr std::size_t kHitPool = 54;
constexpr double kZipfExponent = 0.5;
constexpr std::size_t kRankBands = 6;  // cost bands the Zipf ranks cycle through
constexpr const char* kDeadlineMs = "3000";
constexpr std::size_t kHitConnections = 2;
// Queries each connection keeps outstanding: enough that the daemon's
// workers find the next query queued rather than wait to be woken for it.
constexpr std::size_t kHitDepth = 4;
constexpr std::size_t kQueueLimit = 64;

std::size_t daemon_workers() {
  const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  return n > 1 ? n - 1 : 1;  // the benchmark's one client thread takes the last core
}

// ------------------------------------------------------------- inputs

/// Cost-sorted cells reordered so that they are dealt out of `nbands`
/// cost bands in turn (seeded order within a band): any run of the
/// result, such as the top Zipf ranks, has the same cost profile at
/// every seed.
std::vector<Cell> deal_by_cost_band(Rng& rng, const std::vector<Cell>& sorted, std::size_t nbands) {
  std::vector<std::vector<Cell>> bands(nbands);
  for (std::size_t i = 0; i < sorted.size(); ++i) bands[i * nbands / sorted.size()].push_back(sorted[i]);
  for (auto& b : bands) rng.shuffle(b);
  std::vector<Cell> dealt;
  for (std::size_t i = 0; dealt.size() < sorted.size(); ++i)
    if (i / nbands < bands[i % nbands].size()) dealt.push_back(bands[i % nbands][i / nbands]);
  return dealt;
}

/// The cheaper half of the cacheable cells, in cost order. The pool is
/// pre-warmed in set-up and answered from the cache after it, so a cell's
/// solve cost shows only in setup_s; drawing the pool from cheap cells
/// gives every seed a short pre-warm of nearly the same cost (one heavy
/// cell would take seconds and set setup_s on its own). Only cacheable
/// cells, because the daemon never caches a non-converged answer.
std::vector<Cell> cheap_cacheable(const References& refs) {
  std::vector<Cell> cells;
  for (const Cell& c : sorted_by_cost(refs))
    if (refs.cacheable(c)) cells.push_back(c);
  cells.resize(cells.size() / 2);
  return cells;
}

/// A seeded cheap cacheable cell from each of `strata` cost strata, in
/// Zipf rank order.
std::vector<Cell> serve_pool(Rng& rng, const References& refs, std::size_t strata) {
  std::vector<Cell> picks;
  for (const auto& s : cut_strata(cheap_cacheable(refs), strata)) picks.push_back(s[rng.below(s.size())]);
  return deal_by_cost_band(rng, picks, kRankBands);
}

/// Zipf rank sampler; rank i is pool[i] (the pool order is seeded).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) cdf_[i] = (total += 1.0 / std::pow(i + 1.0, s));
    for (double& c : cdf_) c /= total;
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------- daemon

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string f;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect failed");
    }
  }
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = write(fd_, out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon connection closed on write");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available (the caller polled) and appends complete
  /// lines to `lines`.
  void read_lines(std::vector<std::string>& lines) {
    char buf[65536];
    ssize_t n;
    do n = read(fd_, buf, sizeof buf);
    while (n < 0 && errno == EINTR);
    if (n <= 0) throw std::runtime_error("daemon connection closed on read");
    pending_.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = pending_.find('\n')) != std::string::npos;) {
      lines.push_back(pending_.substr(0, nl));
      pending_.erase(0, nl + 1);
    }
  }

  /// Blocking request/response for control ops and set-up.
  std::string request(const std::string& line) {
    send_line(line);
    std::vector<std::string> lines;
    while (lines.empty()) read_lines(lines);
    return lines.front();
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// One lrdq_serve process with its socket and cache directory in `dir`.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& dir, std::vector<std::string> flags)
      : socket_(dir + "/serve.sock") {
    std::vector<std::string> args{opt.serve_bin, "--socket", socket_, "--threads",
                                  std::to_string(daemon_workers()), "--queue-limit",
                                  std::to_string(kQueueLimit)};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/daemon.log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, opt.serve_bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + opt.serve_bin);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_; }
  double cpu_seconds() const { return proc_cpu_seconds(pid_); }
  double peak_rss_mb() const { return proc_peak_rss_mb(pid_); }

  /// Connects and pings until the daemon answers (the end of spawn).
  std::unique_ptr<Conn> wait_ready() {
    const Clock::time_point t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < 30.0) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("lrdq_serve exited during start-up");
      }
      try {
        auto conn = std::make_unique<Conn>(socket_);
        if (conn->request("{\"op\": \"ping\"}").find("\"code\": 0") != std::string::npos)
          return conn;
      } catch (const std::runtime_error&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("lrdq_serve did not answer ping within 30 s");
  }

  /// SIGTERM (graceful drain), then SIGKILL if it has not exited in 20 s.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_between(t0, Clock::now()) > 20.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ----------------------------------------------------------- responses

/// A response reduced to what the benchmark checks and times.
struct Answer {
  int code = -1;
  bool hit = false;
  bool has_bracket = false;
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double wall_ms = 0.0;
  std::size_t id = 0;
};

const char* after(const std::string& line, const char* key) {
  const auto pos = line.find(key);
  return pos == std::string::npos ? nullptr : line.c_str() + pos + std::strlen(key);
}

Answer read_answer(const std::string& line) {
  Answer a;
  if (const char* p = after(line, "\"id\": \"")) a.id = std::strtoull(p, nullptr, 10);
  if (const char* p = after(line, "\"code\": ")) a.code = std::atoi(p);
  a.hit = line.find("\"hit\": true") != std::string::npos;
  if (const char* p = after(line, "\"estimate\": ")) a.estimate = std::strtod(p, nullptr);
  if (const char* p = after(line, "\"lower\": "); p && std::strncmp(p, "null", 4) != 0) {
    a.has_bracket = true;
    a.lower = std::strtod(p, nullptr);
    if (const char* q = after(line, "\"upper\": ")) a.upper = std::strtod(q, nullptr);
  }
  if (const char* p = after(line, "\"wall_ms\": ")) a.wall_ms = std::strtod(p, nullptr);
  return a;
}

/// The daemon's cache counters, from its `stats` op.
struct CacheCounters {
  double hits = 0, misses = 0;
};

CacheCounters cache_counters(Conn& conn) {
  CacheCounters c;
  const auto doc = json::parse(conn.request("{\"op\": \"stats\"}"));
  if (!doc) throw std::runtime_error("unreadable stats response");
  if (const json::Value* v = doc.value().find("cache"); v && v->is_object()) {
    c.hits = v->find("hits")->as_number();
    c.misses = v->find("misses")->as_number();
  }
  return c;
}

/// Stats-op metrics of the measured phase (cache counters net of set-up;
/// queue-wait quantiles are the daemon's whole-life histogram).
void read_stats(Conn& conn, const CacheCounters& before, RunResult& r) {
  const CacheCounters after = cache_counters(conn);
  const double hits = after.hits - before.hits, misses = after.misses - before.misses;
  r.layer["runtime.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const auto doc = json::parse(conn.request("{\"op\": \"stats\"}"));
  if (!doc) return;
  if (const json::Value* q = doc.value().find("queue_wait"); q && q->is_object()) {
    r.layer["serve.queue_wait_p50_ms"] = q->find("p50_ms")->as_number();
    r.layer["serve.queue_wait_p99_ms"] = q->find("p99_ms")->as_number();
  }
}

/// Sends every line, one per daemon worker outstanding (so the pre-warm
/// leaves the daemon's queue-wait histogram nearly untouched), and
/// returns the answers in line order.
std::vector<Answer> send_batch(Conn& conn, const std::vector<std::string>& lines) {
  std::vector<Answer> out(lines.size());
  std::size_t sent = 0, got = 0;
  std::vector<std::string> replies;
  while (got < lines.size()) {
    while (sent < lines.size() && sent - got < daemon_workers()) conn.send_line(lines[sent++]);
    replies.clear();
    conn.read_lines(replies);
    for (const std::string& l : replies) {
      const Answer a = read_answer(l);
      if (a.id >= out.size()) throw std::runtime_error("unexpected response id");
      out[a.id] = a;
      ++got;
    }
  }
  return out;
}

bool is_ok(int code) { return code == 0; }

}  // namespace

bool dump_serve_inputs(const Options& opt, const References& refs) {
  if (opt.workload == "serve_hit") {
    Rng rng(opt.seed);
    const std::vector<Cell> pool = serve_pool(rng, refs, kHitPool);
    const Zipf zipf(pool.size(), kZipfExponent);
    for (int i = 0; i < 2000; ++i) std::printf("%s\n", pool[zipf.draw(rng)].key().c_str());
    return true;
  }
  return false;
}

RunResult run_serve_hit(Context& ctx) {
  RunResult r;
  Rng rng(ctx.opt.seed);
  const std::vector<Cell> pool = serve_pool(rng, *ctx.gate.refs, kHitPool);
  const Zipf zipf(pool.size(), kZipfExponent);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < pool.size(); ++i) lines.push_back(query_line(pool[i], std::to_string(i)));

  const std::string dir = make_temp_dir(ctx.opt.work_dir, "hit");
  Daemon daemon(ctx.opt, dir, {"--cache-dir", dir + "/cache", "--default-deadline-ms", kDeadlineMs});
  std::unique_ptr<Conn> control = daemon.wait_ready();
  // Pre-warm: every pool cell once (a miss that the daemon caches).
  const std::vector<Answer> warm = send_batch(*control, lines);
  std::size_t warm_failed = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (warm[i].has_bracket) ctx.gate.check_bracket(pool[i], {warm[i].lower, warm[i].upper});
    if (!is_ok(warm[i].code)) ++warm_failed;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t k = 0; k < kHitConnections; ++k)
    conns.push_back(std::make_unique<Conn>(daemon.socket_path()));
  r.setup_s = seconds_between(process_start(), Clock::now());
  r.detail["prewarm_failed"] = std::to_string(warm_failed);
  if (ctx.opt.setup_only) {
    daemon.stop();
    remove_tree(dir);
    return r;
  }

  const bool traced_run = ctx.tracer.on();
  std::vector<double> server_ms, transport_us, on_lat, off_lat;
  // Measured queries carry the op number as their id, so answers, which
  // come back in completion order, find their op.
  std::vector<std::string> tails;
  std::string head;
  for (const Cell& c : pool) {
    const std::string line = query_line(c, "#");
    head = line.substr(0, line.find('#'));
    tails.push_back(line.substr(line.find('#') + 1));
  }
  struct Pending {
    std::size_t cell = 0;
    bool traced = false;
    Clock::time_point sent_at;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  std::vector<std::string> batch;
  std::uint64_t op = 0;
  const auto send_next = [&](std::size_t k) {
    const std::size_t cell = zipf.draw(rng);
    const std::string line = head + std::to_string(op) + tails[cell];
    pending[op] = {cell, traced_run && op % 2 == 0, Clock::now()};
    ++op;
    conns[k]->send_line(line);
  };
  // Room for every op up front: the per-op record then grows page by
  // page, not by doubling copies that would step peak_rss_mb with the
  // op count.
  const auto room = static_cast<std::size_t>(ctx.opt.seconds * 250000.0);
  r.latencies_ms.reserve(room);
  r.done_s.reserve(room);
  const CacheCounters before = cache_counters(*control);
  const double cpu0 = self_cpu_seconds(), dcpu0 = daemon.cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t d = 0; d < kHitDepth; ++d)
    for (std::size_t k = 0; k < kHitConnections; ++k) send_next(k);
  std::size_t in_flight = kHitConnections * kHitDepth;
  pollfd pfd[kHitConnections];
  while (in_flight > 0) {
    for (std::size_t k = 0; k < kHitConnections; ++k) pfd[k] = {conns[k]->fd(), POLLIN, 0};
    if (poll(pfd, kHitConnections, 10000) <= 0) throw std::runtime_error("daemon stopped answering");
    const bool more = seconds_between(t0, Clock::now()) < ctx.opt.seconds;
    for (std::size_t k = 0; k < kHitConnections; ++k) {
      if (!(pfd[k].revents & POLLIN)) continue;
      batch.clear();
      conns[k]->read_lines(batch);
      const Clock::time_point at = Clock::now();
      for (const std::string& l : batch) {
        const Answer a = read_answer(l);
        const auto it = pending.find(a.id);
        if (it == pending.end()) throw std::runtime_error("unexpected response id");
        const Pending p = it->second;
        pending.erase(it);
        const double rtt_ms = seconds_between(p.sent_at, at) * 1e3;
        ++r.attempted;
        r.latencies_ms.push_back(rtt_ms);
        r.done_s.push_back(seconds_between(t0, at));
        if (!is_ok(a.code) || !a.hit) ++r.failed;
        if (a.has_bracket) ctx.gate.check_bracket(pool[p.cell], {a.lower, a.upper});
        else if (is_ok(warm[p.cell].code)) ctx.gate.check_repeat(pool[p.cell], a.estimate, warm[p.cell].estimate);
        else ctx.gate.check_estimate(pool[p.cell], a.estimate);
        if (traced_run) {
          ctx.tracer.set_on(p.traced);
          ctx.tracer.record("serve.socket_roundtrip", "serve", p.sent_at, at, a.id);
          ctx.tracer.set_on(true);
          (p.traced ? on_lat : off_lat).push_back(rtt_ms);
          server_ms.push_back(a.wall_ms);
          transport_us.push_back(rtt_ms * 1e3 - a.wall_ms * 1e3);
        }
        if (more) send_next(k);
        else --in_flight;
      }
    }
  }
  r.measured_seconds = seconds_between(t0, Clock::now());
  r.cpu_s = self_cpu_seconds() - cpu0 + daemon.cpu_seconds() - dcpu0;
  // Each distinct estimate once against its reference, through the
  // bracket a converged estimate implies.
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (is_ok(warm[i].code)) ctx.gate.check_estimate(pool[i], warm[i].estimate);

  if (traced_run) {
    read_stats(*control, before, r);
    r.layer["serve.server_ms"] = median(server_ms);
    r.layer["serve.transport_us"] = median(transport_us);
    r.layer["bench.trace_overhead_share"] =
        on_lat.empty() || off_lat.empty() ? 0.0 : median(on_lat) / median(off_lat) - 1.0;
  }
  r.peak_rss_mb = std::max(self_peak_rss_mb(), daemon.peak_rss_mb());
  r.detail["bench_rss_mb"] = format_double(self_peak_rss_mb());
  r.detail["daemon_rss_mb"] = format_double(daemon.peak_rss_mb());
  conns.clear();
  control.reset();
  daemon.stop();

  if (traced_run) {
    std::vector<Cell> cells;
    std::vector<double> estimates;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!is_ok(warm[i].code)) continue;
      cells.push_back(pool[i]);
      estimates.push_back(warm[i].estimate);
    }
    probe_serve_layers(cells, estimates, ctx.tracer, r);
    probe_core_layers(cells, ctx.tracer, r);
  }
  remove_tree(dir);
  return r;
}

}  // namespace e2e
