// Shared pieces of the end-to-end benchmark: the seeded generator, the
// figure-axis cell lattice, the correctness gate, in-memory spans, the
// host fingerprint and the result printer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/traces.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

/// SplitMix64: the only source of randomness for inputs, so one seed
/// names one cell set and one query stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed ^ 0x6a09e667f3bcc909ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(uniform() * n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------- cells

/// One point of the figure axes. `model` 0 is the MTV marginal, 1 the
/// Bellcore marginal; the mean epoch is the trace model's own.
struct Cell {
  int model = 0;
  double hurst = 0.83;
  double cutoff = 1.0;  ///< +inf for the fully self-similar case
  double rho = 0.8;
  double buffer = 0.2;

  /// Canonical text used as the reference-table key.
  std::string key() const;
};

/// Axes of the lattice every workload draws from (Figs. 4, 5, 10-13).
extern const std::vector<double> kHursts;
extern const std::vector<double> kCutoffs;
extern const std::vector<double> kRhos;
extern const std::vector<double> kBuffers;
std::vector<Cell> lattice();

const lrd::core::TraceModel& trace_model(int model);
lrd::core::ModelConfig model_config(const Cell& c);

/// One serve query line for a cell (rates/probs of the trace marginal).
std::string query_line(const Cell& c, const std::string& id, double target_loss = 0.0);

// --------------------------------------------------------- correctness

struct Bracket {
  double lower = 0.0;
  double upper = 0.0;
};

/// Certified brackets of one cell must intersect (Prop. II.1); the
/// slack covers FFT round-off only.
bool overlaps(const Bracket& a, const Bracket& b);

/// The bracket a converged estimate implies: the solver stops once
/// (upper - lower) <= gap * midpoint, and the estimate is the midpoint
/// (or 0 below the zero-loss threshold).
Bracket implied_bracket(double estimate, double gap = 0.2);

/// Reference brackets keyed by Cell::key(), from e2ebench/reference.tsv,
/// with each cell's default-configuration fold work and outcome.
class References {
 public:
  void load(const std::string& path);
  const Bracket* find(const Cell& c) const;
  double work(const Cell& c) const;
  /// True when the default-configuration solve converged: the daemon
  /// caches only such answers, so only such cells can be repeat hits.
  bool cacheable(const Cell& c) const;

 private:
  struct Entry {
    Bracket bracket;
    double work = 0.0;
    bool cacheable = false;
  };
  const Entry& entry(const Cell& c) const;
  std::map<std::string, Entry> table_;
};

/// The lattice sorted by reference fold work (ties in lattice order).
std::vector<Cell> sorted_by_cost(const References& refs);
/// `sorted` cut into `k` consecutive strata of equal size, so of similar
/// solve cost. A seeded draw of one cell per stratum gives every seed the
/// same cost profile, so seed-to-seed spread measures the program rather
/// than the luck of the draw; every cell stays equally likely to be drawn.
std::vector<std::vector<Cell>> cut_strata(const std::vector<Cell>& sorted, std::size_t k);

/// Counts answers that fail the gate. `doctor` (self-test only) shifts
/// every checked bracket or estimate far off so the gate must fire.
struct Gate {
  const References* refs = nullptr;
  std::string doctor;  ///< "", "bracket" or "estimate"
  std::size_t checked = 0;
  std::size_t wrong = 0;
  std::vector<std::string> first_failures;

  void check_bracket(const Cell& c, Bracket b);
  void check_estimate(const Cell& c, double estimate);
  /// A hit must repeat the estimate its key's miss returned, bit for bit.
  void check_repeat(const Cell& c, double estimate, double first_estimate);

 private:
  void fail(const Cell& c, const std::string& what);
};

// --------------------------------------------------------------- spans

/// In-memory spans recorded around calls into the library's public
/// functions (and around the client's socket send -> receive). Only the
/// traced run records; the untraced run pays one branch per boundary.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t op;
  };

  explicit Tracer(bool on) : on_(on) { if (on) spans_.reserve(1 << 16); }
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Records [start, now) when tracing is on.
  void record(const char* name, const char* layer, Clock::time_point start,
              std::uint64_t op = 0) {
    if (!on_) return;
    spans_.push_back({name, layer, ns_since(origin_, start), ns_since(origin_, Clock::now()), op});
  }
  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end, std::uint64_t op = 0) {
    if (!on_) return;
    spans_.push_back({name, layer, ns_since(origin_, start), ns_since(origin_, end), op});
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (loadable in Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --------------------------------------------------------------- stats

template <class T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
template <class T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// The highest percentile of a fixed ladder with at least 10 ops beyond
/// it at `n` ops.
struct Tail {
  double percentile = 50.0;
  std::size_t beyond = 0;
  double value = 0.0;
};
Tail tail_of(const std::vector<double>& latencies);

/// Tail and throughput as medians over consecutive time windows of at
/// least 1000 ops each (at most 100 windows). A run with fewer than 2000
/// ops is one window. On a shared host a stall lands in a few windows and
/// moves their tail and rate, not the median of all.
struct Windowed {
  std::size_t windows = 1;
  Tail tail;                 ///< per-window tail; value is the median
  double throughput = 0.0;   ///< median of per-window ops / window seconds
};
Windowed windowed(const std::vector<float>& latencies_ms, const std::vector<float>& done_s,
                  double measured_seconds);

// ------------------------------------------------------------- results

/// Everything one run measured; main() turns it into the result line.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Single precision halves the per-op record, which is most of what
  // the benchmark process's own RSS grows by on serve_hit.
  std::vector<float> latencies_ms;  ///< one per attempted op
  std::vector<float> done_s;        ///< its completion, seconds into the measured phase
  double measured_seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_s = 0.0;  ///< self + daemon CPU over the measured phase
  /// Per-layer metrics (traced run).
  std::map<std::string, double> layer;
  /// Free-form detail for the line before the result.
  std::map<std::string, std::string> detail;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string doctor;       ///< self-test: "bracket" or "estimate" (see Gate)
  std::string bench_dir;    ///< directory holding reference.tsv
  std::string work_dir;     ///< scratch space inside the checkout
  std::string serve_bin;
};

/// Process-start anchor for setup_s.
Clock::time_point process_start();

double self_peak_rss_mb();
double self_cpu_seconds();
/// CPU time the hypervisor gave to other guests while this one's vCPUs
/// were runnable (the steal column of /proc/stat), summed over all CPUs;
/// 0 where the kernel does not report it.
double host_steal_seconds();

/// Wall-time ratio of a 4-way spin to a 1-way spin of the same work,
/// scaled to the number of spinning threads: ~nproc on an idle machine,
/// ~1 on a host whose vCPUs share one core.
double effective_parallelism(std::size_t threads);

/// Warms the process-wide FFT plan cache for every size the solver's
/// default configuration can reach.
void warm_plan_cache();

std::string format_double(double v);
std::string make_temp_dir(const std::string& work_dir, const std::string& tag);
void remove_tree(const std::string& path);

}  // namespace e2e
