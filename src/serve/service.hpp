// QueryService: the socket-free heart of the loss-rate daemon.
//
// One service instance owns the query semantics — cell key derivation,
// cache consultation with provenance, the deadline-bounded solve,
// the required-buffer search — and nothing about transports. The unix
// socket server (serve/server.hpp), the `--once` stdin mode and the unit
// tests all call the same execute(), so every transport answers every
// query identically (the byte-identical-to-lrdq_solve acceptance check
// tests this class, not the socket plumbing).
//
// Deadline semantics: the effective deadline of a query is its own
// deadline_ms when set, else the service default; a non-zero max clamp
// bounds both. The deadline is forwarded to SolverConfig::deadline_ms,
// so a query can never hang the worker — on expiry the solver returns a
// valid-but-wide bracket and the response says deadline_exceeded
// (code 6). A required-buffer search shares ONE deadline across all of
// its probe solves (it is one query), checking the remaining budget
// before each probe.
//
// Cache contract: a solve consults the shared SolverCache under the
// exact model_cell_key lrdq_sweep uses, so daemon answers and sweep
// cells share one content-addressed store. Only converged solves are
// stored (cost = the solve's wall seconds, so eviction keeps expensive
// cells resident); cache hits are reported with the serving tier
// (memory/disk) and the version salt, and carry the cached estimate
// with null bracket bounds — the cache persists the converged estimate,
// not the bracket. Queries with "cache": false bypass the cache in both
// directions.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "serve/protocol.hpp"

namespace lrd::serve {

struct ServiceConfig {
  /// Deadline applied to queries that do not carry their own; 0 = none.
  std::size_t default_deadline_ms = 0;
  /// Upper clamp on any query's effective deadline; 0 = no clamp. A
  /// daemon under admission control should set this: one client asking
  /// for a week-long solve must not monopolize a worker.
  std::size_t max_deadline_ms = 0;
  /// Probe solves allowed per required-buffer search (each probe is one
  /// full solve at a candidate buffer).
  std::size_t max_required_buffer_probes = 48;
  /// Relative tolerance of the required-buffer bisection (on b).
  double required_buffer_tolerance = 0.05;
};

class QueryService {
 public:
  /// `cache` may be null (every query solves fresh). Non-owning.
  QueryService(runtime::SolverCache* cache, const ServiceConfig& cfg = {});

  /// Executes one parsed query to completion. Never throws: model/config
  /// errors come back as status "error" responses. `cancellation`
  /// (optional, non-owning) aborts in-flight solves at the next check
  /// block — the server's drain path.
  Response execute(const Query& q,
                   const runtime::CancellationToken* cancellation = nullptr) const;

  /// Parse + execute of one raw query line (the transports' entry point).
  Response execute_line(std::string_view line,
                        const runtime::CancellationToken* cancellation = nullptr) const;

  runtime::SolverCache* cache() const noexcept { return cache_; }
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  Response solve_query(const Query& q, const runtime::CancellationToken* cancellation) const;

  runtime::SolverCache* cache_;
  ServiceConfig cfg_;
};

}  // namespace lrd::serve
