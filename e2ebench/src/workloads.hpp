// The three workloads and the traced-run layer probes.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "queueing/solver.hpp"

namespace e2e {

/// Writes the reference table (reference.cpp); returns an exit code.
int make_reference(const std::string& path, std::size_t threads);

/// Everything a workload needs besides its own inputs.
struct Context {
  const Options& opt;
  Gate& gate;
  Tracer& tracer;
};

RunResult run_solve_cold(Context& ctx);
RunResult run_sweep_grid(Context& ctx);
RunResult run_serve_hit(Context& ctx);

/// Print the workload's input stream (cell set / query stream) for the
/// determinism self-test without running it; false for another workload.
bool dump_solver_inputs(const Options& opt, const References& refs);
bool dump_serve_inputs(const Options& opt, const References& refs);

/// One solved cell with the telemetry the traced run joins against.
struct SolvedCell {
  Cell cell;
  lrd::queueing::SolverResult result;
  double solve_seconds = 0.0;
};

/// Traced-run layer probes (layers.cpp); each fills RunResult::layer.
void probe_solver_layers(const std::vector<SolvedCell>& solved, RunResult& out);
void probe_core_layers(const std::vector<Cell>& cells, Tracer& tracer, RunResult& out);
void probe_serve_layers(const std::vector<Cell>& cells, const std::vector<double>& estimates,
                        Tracer& tracer, RunResult& out);
void probe_cache_store(std::size_t stores, RunResult& out);

}  // namespace e2e
