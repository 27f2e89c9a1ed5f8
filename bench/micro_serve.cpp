// micro_serve — microbenchmarks for the serving tier.
//
// serve/query_warm — a warm repeat query (parse, cell key, cache hit,
// correlation horizon, response serialization) costs microseconds, not
// solver milliseconds: the daemon's steady-state answer path never
// re-solves a cell it has already answered. serve/query_warm_fig is the
// same path for the figure-sized query e2ebench sends: the 50-bin MTV
// marginal at %.17g, ~2 KB a line, so protocol parse is measured at the
// size clients actually send (recorded, not gated).
//
// Results print to stdout and append to BENCH_history.jsonl
// (--history/--no-history to redirect/disable).
#include <cstdio>
#include <string>
#include <vector>

#include "core/traces.hpp"
#include "harness.hpp"
#include "runtime/cache.hpp"
#include "serve/service.hpp"

namespace {

using namespace lrd;

constexpr const char* kUsage =
    "usage: micro_serve [--filter SUBSTR] [--list] [--repeats N]\n"
    "                   [--warmup N] [--history FILE] [--no-history]\n"
    "       micro_serve --help | --version";

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The MTV figure query at full precision, the shape e2ebench's serve
/// workloads send (core::mtv_model() marginal, H, mean epoch, rho).
std::string mtv_query_line() {
  const core::TraceModel m = core::mtv_model();
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ',';
      out += g17(v[i]);
    }
    return out + "]";
  };
  return "{\"id\": \"warm_fig\", \"rates\": " + list(m.marginal.rates()) +
         ", \"probs\": " + list(m.marginal.probs()) + ", \"hurst\": " + g17(m.hurst) +
         ", \"mean_epoch\": " + g17(m.mean_epoch) + ", \"cutoff\": 1, \"utilization\": " +
         g17(m.utilization) + ", \"buffer\": 0.1}";
}

/// Times repeat queries of `line` after one cold execute has cached the
/// cell; every timed iteration must be a cache hit, or the number is a
/// solver benchmark in disguise (the gate watches hit_rate stay 1).
void warm_query_case(bench::Case& c, const std::string& line) {
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  const serve::Response cold = service.execute_line(line);
  if (cold.status != serve::QueryStatus::kOk) {
    std::fprintf(stderr, "micro_serve: warmup solve failed: %s\n", cold.diagnostic.c_str());
    return;
  }
  std::size_t hits = 0;
  c.measure_ns_per_iter(512, [&](std::size_t) {
    const serve::Response r = service.execute_line(line);
    hits += r.cache_hit ? 1 : 0;
  });
  const std::size_t total = (c.warmup() + c.repeats()) * 512;
  c.metric("hit_rate", total == 0 ? 0.0 : static_cast<double>(hits) / total);
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv, bench::Harness::value_flags(), bench::Harness::bool_flags());
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("micro_serve");
    bench::Harness serve_h("serve", args);

    // Steady-state daemon answer path: the same cell asked again. One
    // cold execute warms the cache; the timed region is parse + key +
    // cache hit + horizon + serialize, never a solve.
    serve_h.add("query_warm", {1, 5}, [](bench::Case& c) {
      warm_query_case(c, R"({"id": "warm", "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3],)"
                         R"( "cutoff": 5, "buffer": 0.2})");
    });
    serve_h.add("query_warm_fig", {1, 5},
                [](bench::Case& c) { warm_query_case(c, mtv_query_line()); });

    return serve_h.run();
  });
}
