// lrdq_e2ebench: end-to-end benchmark of lrdfluid. See e2ebench/README.md.
//
//   lrdq_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--doctor bracket|estimate]
//   lrdq_e2ebench --workload NAME --seed N --dump-inputs   (self-test)
//   lrdq_e2ebench --make-reference FILE [--threads N]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The line before it is a detail object (host
// fingerprint, tail percentile, counts). Exit 0 only when every answer
// passed the correctness gate.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "numerics/simd.hpp"
#include "obs/version.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace e2e;

constexpr int kSetupRepeats = 5;  // setup_s is the median of this many set-ups

/// Every per-layer metric a traced run prints, on every workload. A
/// metric whose layer is not on a workload's path reads 0 and is named
/// in the detail line's "not_on_path".
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"numerics.rfft_roundtrip_ns", "ns"},
    {"numerics.fold_bytes_computed", "bytes"},
    {"queueing.solve_ms", "ms"},
    {"queueing.fold_step_us", "us"},
    {"queueing.fold_share", "share"},
    {"queueing.iterations", "count"},
    {"queueing.levels", "count"},
    {"queueing.refine_waste", "share"},
    {"core.model_build_us", "us"},
    {"core.cell_key_ns", "ns"},
    {"core.horizon_us", "us"},
    {"runtime.sweep.busy_share", "share"},
    {"runtime.executor.steals", "count"},
    {"runtime.cache.hit_ratio", "share"},
    {"runtime.cache_store_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.execute_hit_us", "us"},
    {"serve.to_json_us", "us"},
    {"serve.server_ms", "ms"},
    {"serve.transport_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"bench.trace_overhead_share", "share"},
    {"host.effective_parallelism", "cores"},
    {"host.cpu_s", "s"},
};

std::string json_metric(const std::string& name, double value, const char* unit) {
  return "\"" + name + "\": {\"value\": " + format_double(value) + ", \"unit\": \"" + unit + "\"}";
}

/// Runs this binary again with --setup-only and returns the setup_s it
/// prints, so setup_s is a median over fresh processes (a warm plan
/// cache or page cache in this process must not hide set-up work).
double setup_in_child(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  args.push_back("--setup-only");
  std::vector<char*> cargv;
  for (auto& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot spawn set-up child");
  }
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const auto pos = out.rfind("setup_s=");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || pos == std::string::npos)
    throw std::runtime_error("set-up child failed");
  return std::stod(out.substr(pos + 8));
}

int run(int argc, char** argv) {
  process_start();
  Options opt;
  std::string make_ref;
  std::size_t ref_threads = 1;
  bool dump = false;
  const char* kUsage =
      "usage: lrdq_e2ebench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR\n"
      "                     [--doctor bracket|estimate]\n"
      "       lrdq_e2ebench --workload NAME --seed N --dump-inputs\n"
      "       lrdq_e2ebench --make-reference FILE [--threads N]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--work-dir") opt.work_dir = value();
    else if (a == "--doctor") opt.doctor = value();
    else if (a == "--setup-only") opt.setup_only = true;
    else if (a == "--dump-inputs") dump = true;
    else if (a == "--make-reference") make_ref = value();
    else if (a == "--threads") ref_threads = std::stoul(value());
    else if (a == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument %s\n%s", a.c_str(), kUsage);
      return 2;
    }
  }
  opt.bench_dir = LRD_E2E_DIR;
  opt.serve_bin = LRDQ_SERVE_PATH;
  if (!make_ref.empty()) return make_reference(make_ref, ref_threads);
  References refs;
  refs.load(opt.bench_dir + "/reference.tsv");
  if (dump) {
    if (dump_solver_inputs(opt, refs) || dump_serve_inputs(opt, refs)) return 0;
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (opt.doctor != "" && opt.doctor != "bracket" && opt.doctor != "estimate") {
    std::fprintf(stderr, "--doctor must be bracket or estimate\n");
    return 2;
  }

  Gate gate{&refs, opt.doctor, 0, 0, {}};
  Tracer tracer(opt.trace);
  Context ctx{opt, gate, tracer};

  const double cpu0 = self_cpu_seconds(), steal0 = host_steal_seconds();
  RunResult r;
  if (opt.workload == "solve_cold") r = run_solve_cold(ctx);
  else if (opt.workload == "sweep_grid") r = run_sweep_grid(ctx);
  else if (opt.workload == "serve_hit") r = run_serve_hit(ctx);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.setup_only) {
    std::printf("setup_s=%.9f\n", r.setup_s);
    return 0;
  }

  // Set-up time: median over this run and fresh set-up-only processes.
  std::vector<double> setups{r.setup_s};
  for (int i = 1; i < kSetupRepeats; ++i) setups.push_back(setup_in_child(argc, argv));
  const double setup_s = median(setups);

  // Host fingerprint (after the measured phase, so it perturbs nothing).
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const double eff_par = effective_parallelism(nproc);
  r.detail["nproc"] = std::to_string(nproc);
  r.detail["effective_parallelism"] = format_double(eff_par);
  r.detail["simd"] = std::string("\"") + lrd::numerics::simd::active_isa_name() + "\"";
  r.detail["git_describe"] = std::string("\"") + lrd::obs::git_describe() + "\"";
  r.detail["wall_s"] = format_double(seconds_between(process_start(), Clock::now()));
  r.detail["host_steal_s"] = format_double(host_steal_seconds() - steal0);
  r.detail["cpu_self_s"] = format_double(self_cpu_seconds() - cpu0);
  r.detail["measured_cpu_s"] = format_double(r.cpu_s);
  r.detail["measured_s"] = format_double(r.measured_seconds);
  std::string setup_runs;
  for (double s : setups) setup_runs += (setup_runs.empty() ? "" : ", ") + format_double(s);
  r.detail["setup_runs_s"] = "[" + setup_runs + "]";
  r.detail["answers_checked"] = std::to_string(gate.checked);
  r.detail["wrong_answers"] = std::to_string(gate.wrong);
  std::string failures = "[";
  for (std::size_t i = 0; i < gate.first_failures.size(); ++i)
    failures += (i ? ", \"" : "\"") + gate.first_failures[i] + "\"";
  r.detail["gate_failures"] = failures + "]";

  const double n = static_cast<double>(std::max<std::size_t>(r.attempted, 1));
  const Windowed w = windowed(r.latencies_ms, r.done_s, r.measured_seconds);
  // The tail is reported here rather than as a bounded metric: on
  // serve_hit its seed-to-seed spread on a shared VM (0.8 of its median
  // and more) is wider than any bound the contract allows.
  r.detail["windows"] = std::to_string(w.windows);
  r.detail["latency_tail_ms"] = format_double(w.tail.value);
  r.detail["tail_percentile"] = format_double(w.tail.percentile);
  r.detail["tail_beyond"] = std::to_string(w.tail.beyond);
  std::string quantiles;
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.95, 0.99})
    quantiles += (quantiles.empty() ? "" : ", ") + format_double(quantile(r.latencies_ms, q));
  r.detail["latency_q25_50_75_90_95_99_ms"] = "[" + quantiles + "]";
  r.detail["fail_share"] = format_double(static_cast<double>(r.failed) / n);

  std::string metrics;
  if (!opt.trace) {
    const double checked = static_cast<double>(std::max<std::size_t>(gate.checked, 1));
    metrics = json_metric("latency_p50_ms", median(r.latencies_ms), "ms") + ", " +
              json_metric("throughput_ops_s", w.throughput, "1/s") +
              ", " + json_metric("ok_share", 1.0 - static_cast<double>(r.failed) / n, "share") +
              ", " +
              json_metric("correct_share", 1.0 - static_cast<double>(gate.wrong) / checked,
                          "share") +
              ", " + json_metric("setup_s", setup_s, "s") + ", " +
              json_metric("peak_rss_mb", r.peak_rss_mb, "MB");
  } else {
    r.layer["host.effective_parallelism"] = eff_par;
    r.layer["host.cpu_s"] = r.cpu_s;
    const std::string spans_path =
        opt.work_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    if (tracer.write_chrome_json(spans_path)) r.detail["spans_file"] = "\"" + spans_path + "\"";
    r.detail["spans"] = std::to_string(tracer.spans().size());
    std::string not_on_path;
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = r.layer.find(m.name);
      if (it == r.layer.end()) not_on_path += (not_on_path.empty() ? "\"" : ", \"") + std::string(m.name) + "\"";
      const double value = it == r.layer.end() ? 0.0 : it->second;
      metrics += (metrics.empty() ? "" : ", ") + json_metric(m.name, value, m.unit);
    }
    for (const auto& [name, value] : r.layer) {
      bool known = false;
      for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
      if (!known) throw std::logic_error("undeclared layer metric " + name);
    }
    r.detail["not_on_path"] = "[" + not_on_path + "]";
  }

  std::string detail = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                       std::to_string(opt.seed) + ", \"trace\": " + (opt.trace ? "1" : "0");
  for (const auto& [k, v] : r.detail) detail += ", \"" + k + "\": " + v;
  std::printf("%s}\n", detail.c_str());
  const bool correct = gate.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "lrdq_e2ebench: %zu wrong answers (first: %s)\n", gate.wrong,
                 gate.first_failures.empty() ? "-" : gate.first_failures[0].c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrdq_e2ebench: %s\n", e.what());
    return 3;
  }
}
