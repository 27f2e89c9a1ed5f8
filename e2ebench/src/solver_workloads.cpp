// The two workloads that link the library: solve_cold (one caller, one
// cold FluidModel::solve per op) and sweep_grid (Fig. 4/5-shaped
// surfaces on every core, with cache and checkpoint).
#include <cstdio>
#include <filesystem>
#include <limits>
#include <thread>

#include "core/experiment.hpp"
#include "obs/json.hpp"
#include "runtime/cache.hpp"
#include "runtime/manifest.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace json = lrd::obs::json;

constexpr std::size_t kDeckStrata = 162;  // 8 or 9 lattice cells per stratum

/// The lattice cells whose default-configuration solve ends ok (converged
/// or zero-loss), in cost order. The 28 of 1458 that end
/// bin-budget-exhausted are left out of solve_cold, which must be a
/// workload on which no op fails; their stop reason stays in
/// reference.tsv.
std::vector<Cell> ok_at_default(const References& refs) {
  std::vector<Cell> cells;
  for (const Cell& c : sorted_by_cost(refs))
    if (refs.cacheable(c)) cells.push_back(c);
  return cells;
}

/// solve_cold decks come in pairs: the first deck takes a seeded cell
/// from each cost stratum, the second the mirror cell (index i -> m-1-i
/// in the cost-sorted stratum). Every cell stays equally likely, and the
/// pair's total cost hardly varies with the seed.
class DeckSource {
 public:
  DeckSource(std::uint64_t seed, const References& refs)
      : rng_(seed), strata_(cut_strata(ok_at_default(refs), kDeckStrata)) {}

  std::vector<Cell> next() {
    const bool mirror = decks_++ % 2 == 1;
    std::vector<Cell> deck;
    picks_.resize(strata_.size());
    for (std::size_t s = 0; s < strata_.size(); ++s) {
      const std::size_t m = strata_[s].size();
      picks_[s] = mirror ? m - 1 - picks_[s] : rng_.below(m);
      deck.push_back(strata_[s][picks_[s]]);
    }
    rng_.shuffle(deck);
    return deck;
  }
  /// True between the two decks of a pair.
  bool mid_pair() const { return decks_ % 2 == 1; }

 private:
  Rng rng_;
  std::vector<std::vector<Cell>> strata_;
  std::vector<std::size_t> picks_;
  std::size_t decks_ = 0;
};

/// A Fig. 4 (MTV) or Fig. 5 (Bellcore) surface at the trace's own H and
/// rho. Its axes are the figures' up to b = 1 s (b = 0.01, 0.05, 0.2,
/// 0.5, 1 s; T_c = 0.1 .. 1000 s and infinity), each value jittered by
/// seed to a lattice neighbour. The figures' larger buffers are left out
/// because sweep_grid must be a workload on which no op fails: at b = 2
/// and 5 s, cells of both surfaces end bin-budget-exhausted at the
/// default configuration, and at b <= 1 s no lattice cell does.
struct Surface {
  int model = 0;
  std::vector<double> buffers;
  std::vector<double> cutoffs;
};

/// Surfaces come in quads: an MTV and a Bellcore surface with seeded
/// jitter, then both again with every jittered value swapped for its
/// neighbour. Over a quad each model sweeps each value of a jittered pair
/// once (and an unpaired value twice), so a quad's cost hardly varies
/// with the seed, as with solve_cold's decks.
class SurfaceSource {
 public:
  explicit SurfaceSource(std::uint64_t seed) : rng_(seed) {}

  Surface next() {
    const std::size_t k = surfaces_++ % 4;
    const int model = static_cast<int>(k % 2);
    Surface s;
    s.model = model;
    s.buffers = pick(kBufferGroups, buffer_picks_[model], k >= 2);
    s.cutoffs = pick(kCutoffGroups, cutoff_picks_[model], k >= 2);
    return s;
  }
  /// True inside a quad.
  bool mid_quad() const { return surfaces_ % 4 != 0; }

 private:
  using Groups = std::vector<std::vector<double>>;
  static inline const Groups kBufferGroups{{0.01, 0.02}, {0.05}, {0.1, 0.2}, {0.5}, {1.0}};
  static inline const Groups kCutoffGroups{{0.1, 0.3}, {1.0, 3.0}, {10.0, 30.0}, {100.0, 1000.0},
                                           {std::numeric_limits<double>::infinity()}};
  /// One value from each group: seeded, or the mirror of the last pick.
  std::vector<double> pick(const Groups& groups, std::vector<std::size_t>& picks, bool mirror) {
    picks.resize(groups.size());
    std::vector<double> out;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t m = groups[g].size();
      picks[g] = mirror ? m - 1 - picks[g] : rng_.below(m);
      out.push_back(groups[g][picks[g]]);
    }
    return out;
  }

  Rng rng_;
  std::vector<std::size_t> buffer_picks_[2], cutoff_picks_[2];
  std::size_t surfaces_ = 0;
};

Cell surface_cell(const Surface& s, std::size_t r, std::size_t c) {
  const auto& tm = trace_model(s.model);
  return Cell{s.model, tm.hurst, s.cutoffs[c], tm.utilization, s.buffers[r]};
}

void set_up_solver_process() {
  trace_model(0);
  trace_model(1);
  warm_plan_cache();
}

/// One solve_cold op; traced, it records its spans and collects the
/// telemetry the layer probes join against.
/// `t` gets the op's start, the end of model construction, and its end.
lrd::queueing::SolverResult solve_op(const Cell& c, bool traced, Tracer& tracer, std::uint64_t op,
                                     Clock::time_point (&t)[3]) {
  tracer.set_on(traced);
  lrd::queueing::SolverConfig scfg;  // default configuration
  scfg.collect_telemetry = traced;
  t[0] = Clock::now();
  const lrd::core::FluidModel model(trace_model(c.model).marginal, model_config(c));
  t[1] = Clock::now();
  lrd::queueing::SolverResult res = model.solve(scfg);
  t[2] = Clock::now();
  tracer.record("core.FluidModel", "core", t[0], t[1], op);
  tracer.record("queueing.solve", "queueing", t[1], t[2], op);
  return res;
}

/// Traced over untraced time of the same cells, minus one: up to 48 of
/// the run's cells that solved in under 20 ms, each solved untraced and
/// traced in turn (order alternating by cell), three rounds.
double trace_overhead(const std::vector<SolvedCell>& solved, Tracer& tracer) {
  std::vector<Cell> cells;
  for (const SolvedCell& sc : solved)
    if (sc.solve_seconds < 0.02 && cells.size() < 48) cells.push_back(sc.cell);
  double on = 0.0, off = 0.0;
  Clock::time_point t[3];
  for (int round = 0; round < 3; ++round)
    for (std::size_t i = 0; i < cells.size(); ++i)
      for (std::size_t k = 0; k < 2; ++k) {
        const bool traced = (k + i + static_cast<std::size_t>(round)) % 2 == 1;
        solve_op(cells[i], traced, tracer, 0, t);
        (traced ? on : off) += seconds_between(t[0], t[2]);
      }
  tracer.set_on(true);
  return off > 0.0 ? on / off - 1.0 : 0.0;
}

}  // namespace

bool dump_solver_inputs(const Options& opt, const References& refs) {
  if (opt.workload == "solve_cold") {
    DeckSource decks(opt.seed, refs);
    for (int d = 0; d < 4; ++d)
      for (const Cell& c : decks.next()) std::printf("%s\n", c.key().c_str());
    return true;
  }
  if (opt.workload == "sweep_grid") {
    SurfaceSource surfaces(opt.seed);
    for (std::size_t i = 0; i < 8; ++i) {
      const Surface s = surfaces.next();
      for (std::size_t r = 0; r < s.buffers.size(); ++r)
        for (std::size_t c = 0; c < s.cutoffs.size(); ++c)
          std::printf("%zu %s\n", i, surface_cell(s, r, c).key().c_str());
    }
    return true;
  }
  return false;
}

RunResult run_solve_cold(Context& ctx) {
  RunResult r;
  set_up_solver_process();
  DeckSource decks(ctx.opt.seed, *ctx.gate.refs);
  std::vector<Cell> deck = decks.next();
  r.setup_s = seconds_between(process_start(), Clock::now());
  if (ctx.opt.setup_only) return r;

  const bool traced_run = ctx.tracer.on();
  std::vector<SolvedCell> solved;
  std::vector<Cell> seen;
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  // Whole deck pairs only, so every run measures the same cost profile:
  // the run ends at the first pair boundary past --seconds, after at
  // least 2 and at most 3 pairs. 648 or 972 ops keep latency_tail_ms on
  // one percentile (p98) however fast the host is.
  std::size_t next = 0, decks_done = 0;
  for (std::uint64_t op = 0;; ++op) {
    if (next == deck.size()) {
      ++decks_done;
      const bool pair_done = !decks.mid_pair();
      if (pair_done && (decks_done == 6 || (decks_done >= 4 &&
                                            seconds_between(t0, Clock::now()) >= ctx.opt.seconds)))
        break;
      deck = decks.next();
      next = 0;
    }
    const Cell c = deck[next++];
    Clock::time_point t[3];
    lrd::queueing::SolverResult res = solve_op(c, traced_run, ctx.tracer, op, t);

    ++r.attempted;
    if (!res.converged) ++r.failed;
    r.latencies_ms.push_back(seconds_between(t[0], t[2]) * 1e3);
    r.done_s.push_back(seconds_between(t0, t[2]));
    ctx.gate.check_bracket(c, {res.loss.lower, res.loss.upper});
    if (traced_run) {
      res.occupancy_lower = {};
      res.occupancy_upper = {};
      solved.push_back({c, std::move(res), seconds_between(t[1], t[2])});
      seen.push_back(c);
    }
  }
  r.measured_seconds = seconds_between(t0, Clock::now());
  r.cpu_s = self_cpu_seconds() - cpu0;
  r.peak_rss_mb = self_peak_rss_mb();

  if (traced_run) {
    r.layer["bench.trace_overhead_share"] = trace_overhead(solved, ctx.tracer);
    probe_solver_layers(solved, r);
    probe_core_layers(seen, ctx.tracer, r);
  }
  return r;
}

RunResult run_sweep_grid(Context& ctx) {
  RunResult r;
  SurfaceSource surfaces(ctx.opt.seed);
  set_up_solver_process();
  const std::string dir = make_temp_dir(ctx.opt.work_dir, "sweep");
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  r.setup_s = seconds_between(process_start(), Clock::now());
  if (ctx.opt.setup_only) {
    remove_tree(dir);
    return r;
  }

  const bool traced_run = ctx.tracer.on();
  std::vector<SolvedCell> solved;
  std::vector<Cell> seen;
  double wall = 0.0, cell_seconds = 0.0;
  double steals = 0.0;
  std::size_t hits = 0, lookups = 0;
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  // Whole quads only, for the same reason as solve_cold's decks.
  for (std::uint64_t op = 0; surfaces.mid_quad() || seconds_between(t0, Clock::now()) < ctx.opt.seconds;
       ++op) {
    const Surface s = surfaces.next();
    const auto& tm = trace_model(s.model);

    lrd::core::ModelSweepConfig cfg;  // default SolverConfig
    cfg.hurst = tm.hurst;
    cfg.mean_epoch = tm.mean_epoch;
    cfg.utilization = tm.utilization;
    lrd::runtime::SolverCache cache;
    lrd::runtime::RunManifest manifest;
    lrd::core::SweepRunOptions run;
    run.threads = threads;
    run.cache = &cache;
    run.checkpoint_path = dir + "/surface.ckpt";
    std::filesystem::remove(run.checkpoint_path);
    run.manifest = &manifest;
    // Telemetry carries each cell's final bracket to the correctness gate.
    run.solver_telemetry = true;

    const Clock::time_point s0 = Clock::now();
    const lrd::core::SweepTable table =
        lrd::core::loss_vs_buffer_and_cutoff(tm.marginal, cfg, s.buffers, s.cutoffs, run);
    const Clock::time_point s1 = Clock::now();
    ctx.tracer.record("core.loss_vs_buffer_and_cutoff", "core", s0, s1, op);
    wall += seconds_between(s0, s1);

    const auto doc = json::parse(manifest.to_json());
    if (!doc) throw std::runtime_error("unreadable sweep manifest");
    const json::Value& m = doc.value();
    if (const json::Value* ex = m.find("executor")) steals += ex->find("steals")->as_number();
    if (const json::Value* ca = m.find("cache")) {
      hits += static_cast<std::size_t>(ca->find("hits")->as_number());
      lookups += static_cast<std::size_t>(ca->find("hits")->as_number() +
                                          ca->find("misses")->as_number());
    }
    std::vector<std::vector<char>> issue(s.buffers.size(), std::vector<char>(s.cutoffs.size(), 0));
    for (const auto& is : table.issues) issue[is.row][is.col] = 1;
    for (const json::Value& cell : m.find("cell_times")->items()) {
      const auto row = static_cast<std::size_t>(cell.find("row")->as_number());
      const auto col = static_cast<std::size_t>(cell.find("col")->as_number());
      const double secs = cell.find("seconds")->as_number();
      const Cell c = surface_cell(s, row, col);
      ++r.attempted;
      if (issue[row][col]) ++r.failed;
      r.latencies_ms.push_back(secs * 1e3);
      // Seconds of sweep wall time, the clock measured_seconds is on.
      r.done_s.push_back(wall);
      cell_seconds += secs;
      const json::Value* tel = cell.find("telemetry");
      const json::Value* levels = tel ? tel->find("levels") : nullptr;
      if (levels == nullptr || levels->items().empty()) {
        ctx.gate.check_estimate(c, table.at(row, col));
        continue;
      }
      const json::Value& last = levels->items().back();
      ctx.gate.check_bracket(
          c, {last.find("bracket_lower")->as_number(), last.find("bracket_upper")->as_number()});
      if (traced_run) {
        SolvedCell sc{c, {}, secs};
        for (const json::Value& l : levels->items()) {
          lrd::obs::LevelTelemetry lt;
          lt.bins = static_cast<std::size_t>(l.find("bins")->as_number());
          lt.iterations = static_cast<std::size_t>(l.find("iterations")->as_number());
          sc.result.telemetry.levels.push_back(lt);
          sc.result.iterations += lt.iterations;
        }
        sc.result.levels = sc.result.telemetry.levels.size();
        sc.result.final_bins = sc.result.telemetry.levels.back().bins;
        solved.push_back(std::move(sc));
        seen.push_back(c);
      }
    }
  }
  r.measured_seconds = wall;
  r.cpu_s = self_cpu_seconds() - cpu0;
  r.peak_rss_mb = self_peak_rss_mb();

  if (traced_run) {
    // bench.trace_overhead_share is not on this path: the cells run the
    // same way in both runs (telemetry is on in both, for the gate), and
    // tracing adds one span per 25-cell surface.
    r.layer["runtime.sweep.busy_share"] = cell_seconds / (static_cast<double>(threads) * wall);
    r.layer["runtime.executor.steals"] = steals;
    r.layer["runtime.cache.hit_ratio"] =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    probe_solver_layers(solved, r);
    probe_core_layers(seen, ctx.tracer, r);
    probe_cache_store(256, r);
  }
  remove_tree(dir);
  return r;
}

}  // namespace e2e
