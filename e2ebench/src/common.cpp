#include "common.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "numerics/fft_plan.hpp"

namespace e2e {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

const std::vector<double> kHursts{0.7, 0.83, 0.9};
const std::vector<double> kCutoffs{0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0, kInf};
const std::vector<double> kRhos{0.4, 0.6, 0.8};
const std::vector<double> kBuffers{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0};

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Cell::key() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s|H=%g|Tc=%g|rho=%g|b=%g", model == 0 ? "MTV" : "BC", hurst,
                cutoff, rho, buffer);
  return buf;
}

std::vector<Cell> lattice() {
  std::vector<Cell> cells;
  for (int m = 0; m < 2; ++m)
    for (double h : kHursts)
      for (double tc : kCutoffs)
        for (double rho : kRhos)
          for (double b : kBuffers) cells.push_back(Cell{m, h, tc, rho, b});
  return cells;
}

const lrd::core::TraceModel& trace_model(int model) {
  static const lrd::core::TraceModel mtv = lrd::core::mtv_model();
  static const lrd::core::TraceModel bc = lrd::core::bellcore_model();
  return model == 0 ? mtv : bc;
}

lrd::core::ModelConfig model_config(const Cell& c) {
  lrd::core::ModelConfig mc;
  mc.hurst = c.hurst;
  mc.mean_epoch = trace_model(c.model).mean_epoch;
  mc.cutoff = c.cutoff;
  mc.utilization = c.rho;
  mc.normalized_buffer = c.buffer;
  return mc;
}

std::string query_line(const Cell& c, const std::string& id, double target_loss) {
  const auto& m = trace_model(c.model).marginal;
  std::string out = "{\"id\": \"" + id + "\", \"rates\": [";
  const auto list = [&](const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ',';
      out += format_double(v[i]);
    }
  };
  list(m.rates());
  out += "], \"probs\": [";
  list(m.probs());
  out += "], \"hurst\": " + format_double(c.hurst);
  out += ", \"mean_epoch\": " + format_double(trace_model(c.model).mean_epoch);
  out += ", \"cutoff\": ";
  out += std::isinf(c.cutoff) ? std::string("\"inf\"") : format_double(c.cutoff);
  out += ", \"utilization\": " + format_double(c.rho);
  out += ", \"buffer\": " + format_double(c.buffer);
  if (target_loss > 0.0) out += ", \"target_loss\": " + format_double(target_loss);
  out += "}";
  return out;
}

// ------------------------------------------------------------- the gate

bool overlaps(const Bracket& a, const Bracket& b) {
  // Covers FFT round-off and the 9-digit telemetry serialization of the
  // sweep manifest, nothing more.
  constexpr double kSlack = 2e-8;
  return a.lower <= b.upper * (1.0 + kSlack) + 1e-300 &&
         b.lower <= a.upper * (1.0 + kSlack) + 1e-300;
}

Bracket implied_bracket(double estimate, double gap) {
  if (estimate == 0.0) return {0.0, 1e-10};
  return {estimate * (1.0 - gap / 2.0), estimate * (1.0 + gap / 2.0)};
}

void References::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference table " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, stop, default_stop;
    Entry e;
    if (!std::getline(fields, key, '\t') ||
        !(fields >> e.bracket.lower >> e.bracket.upper >> stop >> e.work >> default_stop))
      throw std::runtime_error("malformed reference line: " + line);
    e.cacheable = default_stop == "converged" || default_stop == "zero-loss";
    table_[key] = e;
  }
  if (table_.empty()) throw std::runtime_error("empty reference table " + path);
}

const Bracket* References::find(const Cell& c) const {
  const auto it = table_.find(c.key());
  return it == table_.end() ? nullptr : &it->second.bracket;
}

const References::Entry& References::entry(const Cell& c) const {
  const auto it = table_.find(c.key());
  if (it == table_.end()) throw std::runtime_error("no reference for " + c.key());
  return it->second;
}

double References::work(const Cell& c) const { return entry(c).work; }
bool References::cacheable(const Cell& c) const { return entry(c).cacheable; }

std::vector<Cell> sorted_by_cost(const References& refs) {
  // One table lookup per cell: the keys are formatted strings, and a
  // lookup per comparison would format ~30k of them inside setup_s.
  std::vector<std::pair<double, Cell>> by_work;
  for (const Cell& c : lattice()) by_work.emplace_back(refs.work(c), c);
  std::stable_sort(by_work.begin(), by_work.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Cell> cells;
  for (const auto& [work, c] : by_work) cells.push_back(c);
  return cells;
}

std::vector<std::vector<Cell>> cut_strata(const std::vector<Cell>& sorted, std::size_t k) {
  std::vector<std::vector<Cell>> strata(k);
  for (std::size_t i = 0; i < sorted.size(); ++i) strata[i * k / sorted.size()].push_back(sorted[i]);
  return strata;
}

void Gate::fail(const Cell& c, const std::string& what) {
  ++wrong;
  if (first_failures.size() < 8) first_failures.push_back(c.key() + ": " + what);
}

void Gate::check_bracket(const Cell& c, Bracket b) {
  ++checked;
  const Bracket* ref = refs->find(c);
  if (ref == nullptr) return fail(c, "no reference bracket");
  if (doctor == "bracket") b = {ref->upper * 4.0 + 1e-6, ref->upper * 4.0 + 2e-6};
  if (!overlaps(b, *ref)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "bracket [%.6g, %.6g] misses reference [%.6g, %.6g]", b.lower,
                  b.upper, ref->lower, ref->upper);
    fail(c, buf);
  }
}

void Gate::check_estimate(const Cell& c, double estimate) {
  if (doctor == "estimate") estimate = estimate * 4.0 + 1e-3;
  Gate::check_bracket(c, implied_bracket(estimate));
}

void Gate::check_repeat(const Cell& c, double estimate, double first_estimate) {
  ++checked;
  if (doctor == "estimate") estimate = estimate * 4.0 + 1e-3;
  if (estimate != first_estimate) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "hit estimate %.17g != miss estimate %.17g", estimate,
                  first_estimate);
    fail(c, buf);
  }
}

// ---------------------------------------------------------------- spans

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"op\": %llu}}\n",
                 i ? "," : "", s.name, s.layer, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- stats

Tail tail_of(const std::vector<double>& latencies) {
  // 95 and 98 keep a run whose op count drifts around 1000 from jumping
  // between p99 and p90.
  static const double kLadder[] = {99.99, 99.9, 99.0, 98.0, 95.0, 90.0, 50.0};
  Tail t;
  const double n = static_cast<double>(latencies.size());
  for (double p : kLadder) {
    if (n * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
      t.percentile = p;
      t.value = quantile(latencies, p / 100.0);
      t.beyond = static_cast<std::size_t>(
          std::count_if(latencies.begin(), latencies.end(), [&](double x) { return x > t.value; }));
      break;
    }
  }
  return t;
}

Windowed windowed(const std::vector<float>& latencies_ms, const std::vector<float>& done_s,
                  double measured_seconds) {
  Windowed w;
  const std::size_t n = latencies_ms.size();
  w.windows = std::clamp<std::size_t>(n / 1000, 1, 100);
  if (w.windows == 1) {
    w.tail = tail_of({latencies_ms.begin(), latencies_ms.end()});
    w.throughput = static_cast<double>(n) / measured_seconds;
    return w;
  }
  const double width = measured_seconds / static_cast<double>(w.windows);
  std::vector<std::vector<double>> lat(w.windows);
  for (std::size_t i = 0; i < n; ++i)
    lat[std::min(w.windows - 1, static_cast<std::size_t>(done_s[i] / width))].push_back(latencies_ms[i]);
  std::vector<double> tails, beyond, rates;
  for (const auto& l : lat) {
    const Tail t = tail_of(l);
    tails.push_back(t.value);
    beyond.push_back(static_cast<double>(t.beyond));
    rates.push_back(static_cast<double>(l.size()) / width);
    w.tail.percentile = t.percentile;  // windows of similar size share the rung
  }
  w.tail.value = median(tails);
  w.tail.beyond = static_cast<std::size_t>(median(beyond));
  w.throughput = median(rates);
  return w;
}

// ----------------------------------------------------------------- host

Clock::time_point process_start() {
  static const Clock::time_point start = Clock::now();
  return start;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double host_steal_seconds() {
  // Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
  // softirq steal ..., in clock ticks summed over all CPUs.
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field)
    if (!(in >> f)) return 0.0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {
double spin(std::uint64_t iters) {
  volatile double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}
double spin_seconds(std::size_t threads, std::uint64_t iters) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back([iters] { spin(iters); });
  for (auto& t : pool) t.join();
  return seconds_between(t0, Clock::now());
}
}  // namespace

double effective_parallelism(std::size_t threads) {
  constexpr std::uint64_t kIters = 4'000'000;  // ~10-20 ms per spin
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = spin_seconds(1, kIters);
    const double many = spin_seconds(threads, kIters);
    ratios.push_back(static_cast<double>(threads) * one / many);
  }
  return median(ratios);
}

void warm_plan_cache() {
  // Default SolverConfig: M <= 2^14 bins, fold transforms of next_pow2(3M + 1).
  for (std::size_t n = 2; n <= (std::size_t{1} << 16); n *= 2) {
    lrd::numerics::fft_plan(n);
    lrd::numerics::RealFft rf(n);
  }
}

std::string make_temp_dir(const std::string& work_dir, const std::string& tag) {
  std::filesystem::create_directories(work_dir);
  std::string templ = work_dir + "/" + tag + "-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + work_dir);
  return templ;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace e2e
