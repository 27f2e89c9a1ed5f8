#include "serve/protocol.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace lrd::serve {

namespace {

namespace json = lrd::obs::json;
using Type = json::Value::Type;

/// Response numbers are emitted with %.17g so every finite double
/// round-trips exactly — the byte-identical-to-lrdq_solve contract is
/// checked at full precision, not display precision. Non-finite values
/// become null (JSON has no literals for them; the horizon of a
/// cutoff=inf model is the one expected producer).
std::string num17(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

lrd::Diagnostics query_error(std::string message) {
  return lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "serve.protocol",
                               "query is a JSON object of known keys", std::move(message));
}

}  // namespace

lrd::Expected<Query> parse_query(std::string_view line) {
  json::Reader r(line);
  // Members are read straight into the Query. A type error does not stop
  // the read: the first is kept and its value skipped, so a line that is
  // also malformed still gets the kParse verdict.
  std::string invalid;
  const auto fail = [&](std::string message) {
    if (invalid.empty()) invalid = std::move(message);
  };
  const auto expect = [&](Type type, const char* message) {
    if (r.peek() == type) return true;
    fail(message);
    r.skip_value();
    return false;
  };
  const auto number = [&](double& out, const char* message) {
    return expect(Type::kNumber, message) && r.read_number(out);
  };
  const auto number_list = [&](std::vector<double>& out, const char* message) {
    if (!expect(Type::kArray, message)) return;
    out.clear();
    for (r.begin_array(); r.next_item();) {
      double d = 0.0;
      if (number(d, message)) out.push_back(d);
    }
  };
  const auto size = [&](std::size_t& out, const char* message) {
    double v = 0.0;
    if (!number(v, message)) return;
    if (v < 0.0 || v >= 0x1p64 || v != static_cast<double>(static_cast<std::size_t>(v)))
      fail(message);
    else
      out = static_cast<std::size_t>(v);
  };

  Query q;
  std::string_view key;
  std::string s;
  double d = 0.0;
  const bool object = expect(Type::kObject, "query line is not a JSON object") && r.begin_object();
  while (object && r.next_key(key)) {
    if (key == "id") {
      const Type t = r.peek();
      if (t == Type::kString) r.read_string(q.id);
      else if (t == Type::kNumber && r.read_number(d)) q.id = json::number_text(d);
      else if (t == Type::kNull) r.read_null();
      else expect(Type::kString, "\"id\" must be a string or number");
    } else if (key == "op") {
      if (!expect(Type::kString, "\"op\" must be a string") || !r.read_string(s)) continue;
      if (s == "solve") q.op = QueryOp::kSolve;
      else if (s == "ping") q.op = QueryOp::kPing;
      else if (s == "stats") q.op = QueryOp::kStats;
      else if (s == "invalidate") q.op = QueryOp::kInvalidate;
      else if (s == "dump") q.op = QueryOp::kDump;
      else fail("unknown op \"" + s + "\" (solve|ping|stats|invalidate|dump)");
    } else if (key == "rates") {
      number_list(q.rates, "\"rates\" must be a number array");
    } else if (key == "probs") {
      number_list(q.probs, "\"probs\" must be a number array");
    } else if (key == "hurst") {
      number(q.hurst, "\"hurst\" must be a number");
    } else if (key == "mean_epoch") {
      number(q.mean_epoch, "\"mean_epoch\" must be a number");
    } else if (key == "cutoff") {
      // "inf" selects the fully self-similar model, same as lrdq_solve's
      // --cutoff inf (JSON itself has no infinity literal).
      const char* message = "\"cutoff\" must be a number or \"inf\"";
      if (r.peek() == Type::kNumber) r.read_number(q.cutoff);
      else if (!expect(Type::kString, message) || !r.read_string(s)) continue;
      else if (s == "inf") q.cutoff = std::numeric_limits<double>::infinity();
      else fail(message);
    } else if (key == "utilization") {
      number(q.utilization, "\"utilization\" must be a number");
    } else if (key == "buffer") {
      number(q.normalized_buffer, "\"buffer\" must be a number");
    } else if (key == "gap") {
      number(q.target_relative_gap, "\"gap\" must be a number");
    } else if (key == "max_bins") {
      size(q.max_bins, "\"max_bins\" must be a non-negative integer");
    } else if (key == "deadline_ms") {
      size(q.deadline_ms, "\"deadline_ms\" must be a non-negative integer");
    } else if (key == "target_loss") {
      if (!number(d, "\"target_loss\" must be a number in (0, 1)")) continue;
      if (d > 0.0 && d < 1.0) q.target_loss = d;
      else fail("\"target_loss\" must be a number in (0, 1)");
    } else if (key == "cache") {
      if (expect(Type::kBool, "\"cache\" must be a boolean")) r.read_bool(q.use_cache);
    } else {
      // Fail fast on typos: a silently ignored "utilisation" would answer
      // a different capacity-planning question than the one asked.
      fail("unknown query key \"" + std::string(key) + "\"");
      r.skip_value();
    }
  }
  if (!r.finish()) {
    lrd::Diagnostics diag = r.error();
    diag.component = "serve.protocol";
    return diag;
  }
  if (!invalid.empty()) return query_error(std::move(invalid));
  if (q.op == QueryOp::kSolve && (q.rates.empty() || q.probs.empty()))
    return query_error("a solve query needs non-empty \"rates\" and \"probs\"");
  return q;
}

std::string echo_id(std::string_view line) {
  json::Reader r(line);
  std::string id;
  bool seen = false;  // the first "id" member answers, like Value::find
  std::string_view key;
  double d = 0.0;
  const bool object = r.peek() == Type::kObject && r.begin_object();
  while (object && r.next_key(key)) {
    const Type t = seen || key != "id" ? Type::kNull : r.peek();
    seen = seen || key == "id";
    if (t == Type::kString) r.read_string(id);
    else if (t == Type::kNumber && r.read_number(d)) id = json::number_text(d);
    else r.skip_value();
  }
  return r.finish() ? id : std::string();
}

const char* query_status_name(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kNotConverged: return "not_converged";
    case QueryStatus::kDeadlineExceeded: return "deadline_exceeded";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kShed: return "shed";
    case QueryStatus::kError: return "error";
  }
  return "unknown";
}

int query_status_code(QueryStatus s, lrd::ErrorCategory error_category) noexcept {
  switch (s) {
    case QueryStatus::kOk: return 0;
    case QueryStatus::kNotConverged: return 1;
    // Deadline expiry and drain cancellation are both "budget ran out
    // before the requested tolerance": the CLI taxonomy's exit 6.
    case QueryStatus::kDeadlineExceeded:
    case QueryStatus::kCancelled: return 6;
    case QueryStatus::kShed: return kShedCode;
    case QueryStatus::kError: return lrd::exit_code_for(error_category);
  }
  return lrd::exit_code_for(lrd::ErrorCategory::kInternal);
}

std::string Response::to_json() const {
  std::string out = "{";
  out += "\"id\": " + json::escape(id);
  out += ", \"op\": " + json::escape(op);
  out += ", \"status\": " + json::escape(query_status_name(status));
  out += ", \"code\": " + std::to_string(code());
  if (query_id != 0) out += ", \"query_id\": " + std::to_string(query_id);

  if (has_solve) {
    out += ", \"loss\": { \"estimate\": " + num17(loss_estimate);
    out += ", \"lower\": " + num17(loss_lower);
    out += ", \"upper\": " + num17(loss_upper);
    out += ", \"relative_gap\": " + num17(relative_gap) + " }";
    out += ", \"converged\": ";
    out += converged ? "true" : "false";
    out += ", \"stop\": " + json::escape(stop);
    out += ", \"iterations\": " + std::to_string(iterations);
    out += ", \"levels\": " + std::to_string(levels);
    out += ", \"bins\": " + std::to_string(bins);
  }
  if (has_horizon) out += ", \"correlation_horizon\": " + num17(correlation_horizon);
  if (has_required_buffer) {
    out += ", \"required_buffer\": { \"normalized\": " + num17(required_normalized_buffer);
    out += ", \"mb\": " + num17(required_buffer_mb);
    out += ", \"loss\": " + num17(required_buffer_loss) + " }";
  }

  if (op == "solve" && status != QueryStatus::kShed && status != QueryStatus::kError) {
    char keyhex[24];
    std::snprintf(keyhex, sizeof keyhex, "%016" PRIx64, cache_key);
    out += ", \"cache\": { \"hit\": ";
    out += cache_hit ? "true" : "false";
    out += ", \"tier\": ";
    out += cache_tier == CacheTier::kMemory ? "\"memory\""
           : cache_tier == CacheTier::kDisk ? "\"disk\""
                                            : "\"none\"";
    out += ", \"key\": ";
    out += json::escape(keyhex);
    out += ", \"salt\": " + json::escape(cache_salt) + " }";
  }

  for (const auto& [key, value] : extra) out += ", " + json::escape(key) + ": " + value;

  if (!diagnostic.empty()) out += ", \"diagnostic\": " + json::escape(diagnostic);
  out += ", \"wall_ms\": " + num17(wall_ms);
  out += "}";
  return out;
}

Response error_response(std::string id, const lrd::Diagnostics& d) {
  Response r;
  r.status = QueryStatus::kError;
  r.error_category = d.category;
  r.id = std::move(id);
  r.diagnostic = d.describe();
  return r;
}

Response shed_response(std::string id) {
  Response r;
  r.status = QueryStatus::kShed;
  r.id = std::move(id);
  r.diagnostic = "admission queue full; retry later";
  return r;
}

}  // namespace lrd::serve
