// Reference brackets for the correctness gate. Each lattice cell is
// solved once, offline, with a tighter configuration than any workload
// uses (5% gap, twice the default bin cap). Proposition II.1 makes every
// bracket the solver returns certified, converged or not, so a workload
// bracket that misses its cell's reference is a solver defect.
//
// Each line also stores the cell's fold work and stop reason at the
// default configuration: a host-independent cost measure the workloads
// stratify their seeded draws by (see cut_strata in common.hpp), and
// whether the cell's default solve ends ok: only such cells are cached
// by the daemon or drawn by solve_cold.
//
//   lrdq_e2ebench --make-reference e2ebench/reference.tsv [--threads N]
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

lrd::queueing::SolverConfig reference_solver_config() {
  lrd::queueing::SolverConfig s;
  s.target_relative_gap = 0.05;
  s.max_bins = std::size_t{1} << 15;
  s.deadline_ms = 30000;
  return s;
}

/// Sum over levels of iterations x N log2 N, N the level's fold transform size.
double fold_work(const lrd::queueing::SolverResult& r) {
  double work = 0.0;
  for (const auto& l : r.telemetry.levels) {
    double n = 2.0;
    while (n < 3.0 * static_cast<double>(l.bins) + 1.0) n *= 2.0;
    work += static_cast<double>(l.iterations) * n * std::log2(n);
  }
  return work;
}
}  // namespace

int make_reference(const std::string& path, std::size_t threads) {
  const std::vector<Cell> cells = lattice();
  std::vector<std::string> lines(cells.size());
  std::atomic<std::size_t> next{0};
  std::mutex log_mu;
  const auto worker = [&] {
    for (std::size_t i = next++; i < cells.size(); i = next++) {
      const Cell& c = cells[i];
      const Clock::time_point t0 = Clock::now();
      const lrd::core::FluidModel model(trace_model(c.model).marginal, model_config(c));
      const lrd::queueing::SolverResult r = model.solve(reference_solver_config());
      lrd::queueing::SolverConfig dflt;
      dflt.collect_telemetry = true;
      const lrd::queueing::SolverResult d = model.solve(dflt);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\t%.17g\t%.17g\t%s\t%.0f\t%s", c.key().c_str(),
                    r.loss.lower, r.loss.upper, lrd::queueing::solver_stop_name(r.stop),
                    fold_work(d), lrd::queueing::solver_stop_name(d.stop));
      lines[i] = buf;
      std::lock_guard<std::mutex> lock(log_mu);
      std::fprintf(stderr, "[%zu/%zu] %s %.2fs\n", i + 1, cells.size(), buf,
                   seconds_between(t0, Clock::now()));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 5;
  std::fputs(
      "# cell\tlower\tupper\tstop\twork\tdefault_stop  (lrdq_e2ebench --make-reference: the\n"
      "# bracket of a 5% gap, max_bins 32768 solve; work and default_stop are the fold work and\n"
      "# the stop reason of the default-configuration solve)\n",
      f);
  for (const std::string& l : lines) std::fprintf(f, "%s\n", l.c_str());
  return std::fclose(f) == 0 ? 0 : 5;
}

}  // namespace e2e
