// Traced-run probes: each layer measured from outside, by timing calls
// into its public functions on the cells the workload itself ran.
#include <cmath>

#include "core/correlation_horizon.hpp"
#include "core/experiment.hpp"
#include "numerics/fft_plan.hpp"
#include "runtime/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

/// Cells sampled evenly from `n`, at most `limit`.
std::vector<std::size_t> even_sample(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> idx;
  if (n == 0) return idx;
  const std::size_t k = std::min(n, limit);
  for (std::size_t i = 0; i < k; ++i) idx.push_back(i * n / k);
  return idx;
}

/// Median per-call seconds of `fn` over 5 batches of >= 0.5 ms each.
template <typename Fn>
double time_per_call(Fn&& fn) {
  for (int i = 0; i < 2; ++i) fn();  // warm
  std::size_t reps = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (seconds_between(t0, Clock::now()) >= 5e-4 || reps >= (1u << 20)) break;
    reps *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < 5; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    per.push_back(seconds_between(t0, Clock::now()) / static_cast<double>(reps));
  }
  return median(per);
}

std::size_t fold_fft_size(std::size_t bins) {
  std::size_t n = 2;
  while (n < 3 * bins + 1) n *= 2;
  return n;
}

double fft_bytes(std::size_t n) {
  // Radix-2^2 stage pairs, each reading and writing n complex doubles.
  const double passes = std::ceil(std::log2(static_cast<double>(n)) / 2.0);
  return 2.0 * 16.0 * static_cast<double>(n) * passes;
}

/// Computed (not measured) bytes one fold step moves: forward + inverse
/// transforms, the spectrum multiply, and the fold of 3M+1 doubles onto
/// M+1. Levels of >= 1024 bins run two real convolutions (split mode).
double fold_step_bytes(std::size_t bins) {
  const std::size_t n = fold_fft_size(bins);
  const double fold = 8.0 * (4.0 * static_cast<double>(bins) + 2.0);
  if (bins < 1024) return 2.0 * fft_bytes(n) + 48.0 * static_cast<double>(n) + 2.0 * fold;
  const std::size_t half = n / 2;
  return 2.0 * (2.0 * fft_bytes(half) + 48.0 * static_cast<double>(half) + fold);
}

/// One DualFoldEngine step at `bins`, fed with the cell's own increments.
double fold_step_seconds(const lrd::queueing::FluidQueueSolver& solver, std::size_t bins) {
  lrd::queueing::DualFoldEngine engine(solver.increment_pmf_lower(bins),
                                       solver.increment_pmf_upper(bins), bins);
  std::vector<double> q_low(bins + 1, 0.0), q_high(bins + 1, 0.0);
  q_low.front() = 1.0;
  q_high.back() = 1.0;
  lrd::queueing::StepHealth lh, hh;
  return time_per_call([&] { engine.step(q_low, q_high, lh, hh); });
}

/// FftPlan real round-trip (RealFft forward + inverse) at size n.
double rfft_roundtrip_seconds(std::size_t n) {
  const lrd::numerics::RealFft rf(n);
  std::vector<double> x(n), out(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.37 * static_cast<double>(i));
  std::vector<std::complex<double>> spec(rf.spectrum_size());
  return time_per_call([&] {
    rf.forward(x.data(), n, spec.data());
    rf.inverse(spec.data(), out.data());
  });
}

}  // namespace

void probe_solver_layers(const std::vector<SolvedCell>& solved, RunResult& out) {
  if (solved.empty()) return;
  std::vector<double> solve_ms;
  double iterations = 0.0, levels = 0.0, nonfinal = 0.0, bytes = 0.0;
  for (const SolvedCell& sc : solved) {
    solve_ms.push_back(sc.solve_seconds * 1e3);
    iterations += static_cast<double>(sc.result.iterations);
    levels += static_cast<double>(sc.result.levels);
    const auto& lv = sc.result.telemetry.levels;
    for (std::size_t i = 0; i < lv.size(); ++i) {
      if (i + 1 < lv.size()) nonfinal += static_cast<double>(lv[i].iterations);
      bytes += static_cast<double>(lv[i].iterations) * fold_step_bytes(lv[i].bins);
    }
  }
  const double n = static_cast<double>(solved.size());
  out.layer["queueing.solve_ms"] = median(solve_ms);
  out.layer["queueing.iterations"] = iterations / n;
  out.layer["queueing.levels"] = levels / n;
  out.layer["queueing.refine_waste"] = iterations > 0 ? nonfinal / iterations : 0.0;
  out.layer["numerics.fold_bytes_computed"] = bytes / n;

  // Fold replay: time the step and the real round-trip at every bin
  // count a sampled cell reached, then join with its per-level
  // iteration counts to see what share of the solve the fold is.
  double fold_seconds = 0.0, rt_seconds = 0.0, sampled_iterations = 0.0, sampled_solve = 0.0;
  for (std::size_t i : even_sample(solved.size(), 12)) {
    const SolvedCell& sc = solved[i];
    const lrd::core::FluidModel model(trace_model(sc.cell.model).marginal, model_config(sc.cell));
    const lrd::queueing::FluidQueueSolver solver = model.solver();
    for (const auto& l : sc.result.telemetry.levels) {
      const double step = fold_step_seconds(solver, l.bins);
      const double it = static_cast<double>(l.iterations);
      fold_seconds += it * step;
      rt_seconds += it * rfft_roundtrip_seconds(fold_fft_size(l.bins));
      sampled_iterations += it;
    }
    sampled_solve += sc.solve_seconds;
  }
  if (sampled_iterations > 0) {
    out.layer["queueing.fold_step_us"] = fold_seconds / sampled_iterations * 1e6;
    out.layer["numerics.rfft_roundtrip_ns"] = rt_seconds / sampled_iterations * 1e9;
  }
  if (sampled_solve > 0) out.layer["queueing.fold_share"] = fold_seconds / sampled_solve;
}

void probe_core_layers(const std::vector<Cell>& cells, Tracer& tracer, RunResult& out) {
  std::vector<double> build_us, key_ns, horizon_us;
  const lrd::queueing::SolverConfig scfg;
  for (std::size_t i : even_sample(cells.size(), 64)) {
    const Cell& c = cells[i];
    const auto& marginal = trace_model(c.model).marginal;
    const lrd::core::ModelConfig mc = model_config(c);
    const Clock::time_point t0 = Clock::now();
    const lrd::core::FluidModel model(marginal, mc);
    tracer.record("core.FluidModel", "core", t0);
    build_us.push_back(seconds_between(t0, Clock::now()) * 1e6);

    const Clock::time_point t1 = Clock::now();
    key_ns.push_back(time_per_call([&] {
      volatile std::uint64_t k = lrd::core::model_cell_key(marginal, mc, scfg);
      (void)k;
    }) * 1e9);
    tracer.record("core.model_cell_key", "core", t1);

    if (!std::isinf(model.epochs()->variance())) {
      const Clock::time_point t2 = Clock::now();
      volatile double h = lrd::core::correlation_horizon(marginal, *model.epochs(), model.buffer());
      (void)h;
      tracer.record("core.correlation_horizon", "core", t2);
      horizon_us.push_back(seconds_between(t2, Clock::now()) * 1e6);
    }
  }
  if (!build_us.empty()) {
    out.layer["core.model_build_us"] = median(build_us);
    out.layer["core.cell_key_ns"] = median(key_ns);
  }
  if (!horizon_us.empty()) out.layer["core.horizon_us"] = median(horizon_us);
}

void probe_serve_layers(const std::vector<Cell>& cells, const std::vector<double>& estimates,
                        Tracer& tracer, RunResult& out) {
  if (cells.empty()) return;
  lrd::runtime::SolverCache cache;
  const lrd::serve::QueryService service(&cache);
  std::vector<std::string> lines;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    lines.push_back(query_line(cells[i], std::to_string(i)));
    lrd::queueing::SolverConfig scfg;  // the daemon's defaults for this query
    keys.push_back(lrd::core::model_cell_key(trace_model(cells[i].model).marginal,
                                             model_config(cells[i]), scfg));
  }
  std::vector<double> parse_us, execute_us, json_us;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      if (pass == 0) {
        cache.store(keys[i], estimates[i], 1e-3);
        tracer.record("runtime.SolverCache::store", "runtime", t0, i);
        const Clock::time_point t1 = Clock::now();
        if (!cache.lookup(keys[i])) throw std::runtime_error("probe cache lost a stored key");
        tracer.record("runtime.SolverCache::lookup", "runtime", t1, i);
        continue;
      }
      const auto parsed = lrd::serve::parse_query(lines[i]);
      const Clock::time_point t1 = Clock::now();
      if (!parsed) throw std::runtime_error("probe query rejected: " + lines[i]);
      const lrd::serve::Response resp = service.execute(parsed.value());
      const Clock::time_point t2 = Clock::now();
      const std::string text = resp.to_json();
      const Clock::time_point t3 = Clock::now();
      tracer.record("serve::parse_query", "serve", t0, t1, i);
      tracer.record("serve::QueryService::execute", "serve", t1, t2, i);
      tracer.record("serve::Response::to_json", "serve", t2, t3, i);
      // The in-process service keys cells from the parsed query; a miss
      // here would time a solve, not a hit.
      if (!resp.cache_hit) continue;
      parse_us.push_back(seconds_between(t0, t1) * 1e6);
      execute_us.push_back(seconds_between(t1, t2) * 1e6);
      json_us.push_back(seconds_between(t2, t3) * 1e6);
    }
  }
  if (execute_us.empty()) throw std::runtime_error("serve probe found no cache hit");
  out.layer["serve.parse_us"] = median(parse_us);
  out.layer["serve.execute_hit_us"] = median(execute_us);
  out.layer["serve.to_json_us"] = median(json_us);
}

void probe_cache_store(std::size_t stores, RunResult& out) {
  lrd::runtime::SolverCache cache;
  std::vector<double> us;
  Rng rng(stores);
  for (std::size_t i = 0; i < stores; ++i) {
    const std::uint64_t key = rng.next();
    const Clock::time_point t0 = Clock::now();
    cache.store(key, 1e-3 * static_cast<double>(i), 1e-3);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  out.layer["runtime.cache_store_us"] = median(us);
}

}  // namespace e2e
