// Differential mutation test of the serve query parser.
//
// serve::parse_query reads a query line in one pass off json::Reader and
// defers type errors until the whole line has proved well-formed. The
// reference below is the tree walk it replaced: json::parse the line,
// then check the members in order. A fixed-seed mutator rewrites real query
// lines (byte flips, truncation, duplicated keys, \uXXXX escapes, '+'
// prefixes, subnormal and overflowing exponents, deep nesting under an
// unknown key, trailing values) and both parsers must agree on every
// mutant: accept or reject, every Query field bit for bit, and the
// diagnostic's category, message and line. The id echo of rejected and
// shed lines is checked the same way against a Value::find reference.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/traces.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace lrd;
namespace json = lrd::obs::json;

// ------------------------------------------------------------- reference

lrd::Diagnostics reference_error(std::string message) {
  return lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "serve.protocol",
                               "query is a JSON object of known keys", std::move(message));
}

bool reference_size(const json::Value& v, std::size_t& out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (d < 0.0 || d >= 0x1p64 || d != static_cast<double>(static_cast<std::size_t>(d)))
    return false;
  out = static_cast<std::size_t>(d);
  return true;
}

bool reference_list(const json::Value& v, std::vector<double>& out) {
  if (!v.is_array()) return false;
  out.clear();
  for (const json::Value& item : v.items()) {
    if (!item.is_number()) return false;
    out.push_back(item.as_number());
  }
  return true;
}

/// The tree walk serve::parse_query used before it read the line in one
/// pass: first parse error wins, then the first bad member in order.
lrd::Expected<serve::Query> reference_parse_query(std::string_view line) {
  auto parsed = json::parse(line);
  if (!parsed) {
    lrd::Diagnostics d = parsed.diagnostics();
    d.component = "serve.protocol";
    return d;
  }
  const json::Value& v = parsed.value();
  if (!v.is_object()) return reference_error("query line is not a JSON object");
  serve::Query q;
  for (const auto& [key, value] : v.members()) {
    if (key == "id") {
      if (value.is_string()) q.id = value.as_string();
      else if (value.is_number()) q.id = json::number_text(value.as_number());
      else if (!value.is_null()) return reference_error("\"id\" must be a string or number");
    } else if (key == "op") {
      if (!value.is_string()) return reference_error("\"op\" must be a string");
      const std::string& op = value.as_string();
      if (op == "solve") q.op = serve::QueryOp::kSolve;
      else if (op == "ping") q.op = serve::QueryOp::kPing;
      else if (op == "stats") q.op = serve::QueryOp::kStats;
      else if (op == "invalidate") q.op = serve::QueryOp::kInvalidate;
      else if (op == "dump") q.op = serve::QueryOp::kDump;
      else return reference_error("unknown op \"" + op + "\" (solve|ping|stats|invalidate|dump)");
    } else if (key == "rates") {
      if (!reference_list(value, q.rates))
        return reference_error("\"rates\" must be a number array");
    } else if (key == "probs") {
      if (!reference_list(value, q.probs))
        return reference_error("\"probs\" must be a number array");
    } else if (key == "hurst") {
      if (!value.is_number()) return reference_error("\"hurst\" must be a number");
      q.hurst = value.as_number();
    } else if (key == "mean_epoch") {
      if (!value.is_number()) return reference_error("\"mean_epoch\" must be a number");
      q.mean_epoch = value.as_number();
    } else if (key == "cutoff") {
      if (value.is_number()) q.cutoff = value.as_number();
      else if (value.is_string() && value.as_string() == "inf")
        q.cutoff = std::numeric_limits<double>::infinity();
      else return reference_error("\"cutoff\" must be a number or \"inf\"");
    } else if (key == "utilization") {
      if (!value.is_number()) return reference_error("\"utilization\" must be a number");
      q.utilization = value.as_number();
    } else if (key == "buffer") {
      if (!value.is_number()) return reference_error("\"buffer\" must be a number");
      q.normalized_buffer = value.as_number();
    } else if (key == "gap") {
      if (!value.is_number()) return reference_error("\"gap\" must be a number");
      q.target_relative_gap = value.as_number();
    } else if (key == "max_bins") {
      if (!reference_size(value, q.max_bins))
        return reference_error("\"max_bins\" must be a non-negative integer");
    } else if (key == "deadline_ms") {
      if (!reference_size(value, q.deadline_ms))
        return reference_error("\"deadline_ms\" must be a non-negative integer");
    } else if (key == "target_loss") {
      if (!value.is_number() || !(value.as_number() > 0.0) || !(value.as_number() < 1.0))
        return reference_error("\"target_loss\" must be a number in (0, 1)");
      q.target_loss = value.as_number();
    } else if (key == "cache") {
      if (!value.is_bool()) return reference_error("\"cache\" must be a boolean");
      q.use_cache = value.as_bool();
    } else {
      return reference_error("unknown query key \"" + key + "\"");
    }
  }
  if (q.op == serve::QueryOp::kSolve && (q.rates.empty() || q.probs.empty()))
    return reference_error("a solve query needs non-empty \"rates\" and \"probs\"");
  return q;
}

/// The id echo the server used for shed and rejected lines.
std::string reference_echo_id(std::string_view line) {
  auto parsed = json::parse(line);
  if (!parsed || !parsed.value().is_object()) return "";
  const json::Value* id = parsed.value().find("id");
  if (id == nullptr) return "";
  if (id->is_string()) return id->as_string();
  if (id->is_number()) return json::number_text(id->as_number());
  return "";
}

// ------------------------------------------------------------ comparison

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

enum class Verdict { kAccepted, kParse, kInvalidConfig, kOther };

/// Checks parse_query and echo_id against the references on `line`;
/// returns the shared verdict for the coverage tally.
Verdict expect_agreement(const std::string& line) {
  const auto want = reference_parse_query(line);
  const auto got = serve::parse_query(line);
  EXPECT_EQ(serve::echo_id(line), reference_echo_id(line)) << line;
  EXPECT_EQ(got.has_value(), want.has_value()) << line;
  if (got.has_value() != want.has_value()) return Verdict::kOther;
  if (!want) {
    const lrd::Diagnostics& w = want.diagnostics();
    const lrd::Diagnostics& g = got.diagnostics();
    EXPECT_EQ(g.category, w.category) << line;
    EXPECT_EQ(g.component, w.component) << line;
    EXPECT_EQ(g.message, w.message) << line;
    EXPECT_EQ(g.line, w.line) << line;
    if (w.category == lrd::ErrorCategory::kParse) return Verdict::kParse;
    return w.category == lrd::ErrorCategory::kInvalidConfig ? Verdict::kInvalidConfig
                                                            : Verdict::kOther;
  }
  const serve::Query& w = want.value();
  const serve::Query& g = got.value();
  EXPECT_EQ(g.op, w.op) << line;
  EXPECT_EQ(g.id, w.id) << line;
  EXPECT_TRUE(same_bits(g.rates, w.rates)) << line;
  EXPECT_TRUE(same_bits(g.probs, w.probs)) << line;
  EXPECT_TRUE(same_bits(g.hurst, w.hurst)) << line;
  EXPECT_TRUE(same_bits(g.mean_epoch, w.mean_epoch)) << line;
  EXPECT_TRUE(same_bits(g.cutoff, w.cutoff)) << line;
  EXPECT_TRUE(same_bits(g.utilization, w.utilization)) << line;
  EXPECT_TRUE(same_bits(g.normalized_buffer, w.normalized_buffer)) << line;
  EXPECT_TRUE(same_bits(g.target_relative_gap, w.target_relative_gap)) << line;
  EXPECT_EQ(g.max_bins, w.max_bins) << line;
  EXPECT_EQ(g.deadline_ms, w.deadline_ms) << line;
  EXPECT_EQ(g.target_loss.has_value(), w.target_loss.has_value()) << line;
  if (g.target_loss && w.target_loss) {
    EXPECT_TRUE(same_bits(*g.target_loss, *w.target_loss)) << line;
  }
  EXPECT_EQ(g.use_cache, w.use_cache) << line;
  return Verdict::kAccepted;
}

// --------------------------------------------------------------- sources

/// The small cell of test_serve.cpp.
const char* kCellFields =
    "\"rates\": [2, 6, 10], \"probs\": [0.3, 0.4, 0.3], \"cutoff\": 5, \"buffer\": 0.2";

/// The query example of docs/SERVE.md, line breaks included.
const char* kDocsExample = R"({"id": "q1", "op": "solve",
 "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3],
 "hurst": 0.85, "mean_epoch": 0.05, "cutoff": 5,
 "utilization": 0.8, "buffer": 0.2,
 "gap": 0.2, "max_bins": 16384, "deadline_ms": 500,
 "target_loss": 1e-3, "cache": true})";

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The full 50-bin MTV marginal at %.17g: the figure-sized query a
/// capacity-planning client sends.
std::string mtv_line() {
  const core::TraceModel m = core::mtv_model();
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ", ";
      out += g17(v[i]);
    }
    return out + "]";
  };
  return "{\"id\": \"mtv\", \"rates\": " + list(m.marginal.rates()) +
         ", \"probs\": " + list(m.marginal.probs()) + ", \"hurst\": " + g17(m.hurst) +
         ", \"mean_epoch\": " + g17(m.mean_epoch) + ", \"cutoff\": \"inf\", \"utilization\": " +
         g17(m.utilization) + ", \"buffer\": 0.5, \"target_loss\": 1e-6}";
}

std::vector<std::string> sources() {
  return {std::string("{") + kCellFields + "}", kDocsExample, R"({"id": 7, "op": "stats"})",
          mtv_line()};
}

// -------------------------------------------------------------- mutations

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t i = 0; i < rounds; ++i) {
      switch (pick(9)) {
        case 0: flip_byte(s); break;
        case 1: s.resize(pick(s.size() + 1)); break;
        case 2: duplicate_key(s); break;
        case 3: insert_escape(s); break;
        case 4: plus_prefix(s); break;
        case 5: odd_exponent(s); break;
        case 6: deep_nesting(s); break;
        case 7: trailing_value(s); break;
        default: flip_byte(s); break;
      }
    }
    return s;
  }

 private:
  std::size_t pick(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  template <std::size_t N>
  const char* pick_of(const char* const (&options)[N]) {
    return options[pick(N)];
  }

  /// Offsets in `s` where a number token starts.
  static std::vector<std::size_t> number_starts(const std::string& s) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const bool digit = (s[i] >= '0' && s[i] <= '9') || s[i] == '-';
      const bool boundary = i == 0 || s[i - 1] == ' ' || s[i - 1] == '[' || s[i - 1] == ':' ||
                            s[i - 1] == ',';
      if (digit && boundary) out.push_back(i);
    }
    return out;
  }

  static std::size_t token_end(const std::string& s, std::size_t i) {
    while (i < s.size() && std::strchr("0123456789.eE+-", s[i]) != nullptr && s[i] != '\0') ++i;
    return i;
  }

  void flip_byte(std::string& s) {
    if (s.empty()) return;
    static const char kBytes[] = "{}[]\":,\\ \n\t0123456789.eE+-aenrstuflx\x01\x7f\xc3";
    const std::size_t at = pick(s.size());
    if (pick(4) == 0) s[at] = static_cast<char>(rng_() & 0xff);
    else s[at] = kBytes[pick(sizeof kBytes - 1)];
  }

  void duplicate_key(std::string& s) {
    static const char* const kMembers[] = {
        "\"rates\": [1, 2]",   "\"rates\": []",       "\"probs\": [1]",    "\"hurst\": \"x\"",
        "\"hurst\": 0.7",      "\"id\": null",        "\"id\": 5",         "\"id\": \"dup\"",
        "\"id\": true",        "\"op\": \"ping\"",    "\"op\": \"solve\"", "\"op\": \"nope\"",
        "\"op\": 3",           "\"cutoff\": \"inf\"", "\"cutoff\": \"x\"", "\"cutoff\": 2",
        "\"max_bins\": 2.5",   "\"max_bins\": 1024",  "\"max_bins\": -1",  "\"deadline_ms\": 9",
        "\"target_loss\": 2",  "\"target_loss\": 0.01", "\"cache\": false", "\"cache\": 1",
        "\"gap\": [0.1]",      "\"buffer\": {}",      "\"utilization\": null", "\"bogus\": 1"};
    const std::string member = pick_of(kMembers);
    if (pick(2) == 0) {
      const std::size_t open = s.find('{');
      if (open != std::string::npos) s.insert(open + 1, member + ", ");
    } else {
      const std::size_t close = s.rfind('}');
      if (close != std::string::npos) s.insert(close, ", " + member);
    }
  }

  void insert_escape(std::string& s) {
    // Either re-spell one character of a string as \u00XX (an escaped
    // key must still match), or drop a random escape into the line.
    std::vector<std::size_t> inside;
    bool in_string = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '"') in_string = !in_string;
      else if (in_string && s[i] != '\\' && static_cast<unsigned char>(s[i]) < 0x80)
        inside.push_back(i);
    }
    char buf[8];
    if (!inside.empty() && pick(3) != 0) {
      const std::size_t at = inside[pick(inside.size())];
      std::snprintf(buf, sizeof buf, "\\u%04X", static_cast<unsigned>(s[at]));
      s.replace(at, 1, buf);
      return;
    }
    static const char* const kEscapes[] = {"\\u0041", "\\u00e9", "\\u20AC", "\\uD83D",
                                           "\\u00",   "\\u12G4", "\\n",     "\\q"};
    s.insert(pick(s.size() + 1), pick_of(kEscapes));
  }

  void plus_prefix(std::string& s) {
    const auto starts = number_starts(s);
    if (starts.empty()) return;
    static const char* const kPrefixes[] = {"+", "+", "++", "+-", "-+", "--"};
    s.insert(starts[pick(starts.size())], pick_of(kPrefixes));
  }

  void odd_exponent(std::string& s) {
    static const char* const kNumbers[] = {
        "1e-310", "4.9e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1e309",  "1e-400",   "-1e-400",                 "1.7976931348623157e308",
        "1e",     "1.",       ".5",                      "-0",
        "00",     "0e-999",   "1e308",                   "2.4703282292062328e-324"};
    static const char* const kExponents[] = {"e-310", "e-320", "e309", "e-400", "e+", "E5"};
    const auto starts = number_starts(s);
    if (starts.empty()) return;
    const std::size_t at = starts[pick(starts.size())];
    const std::size_t end = token_end(s, at);
    if (pick(2) == 0) s.replace(at, end - at, pick_of(kNumbers));
    else s.insert(end, pick_of(kExponents));
  }

  void deep_nesting(std::string& s) {
    // 60..70 levels straddles the 64-level cap; mostly under an unknown
    // key (skipped wholesale), sometimes under a known one.
    const std::size_t depth = 60 + pick(11);
    const char* const key = pick(4) == 0 ? "\"rates\"" : "\"zz\"";
    const char* const leaf = pick(2) == 0 ? "1" : "";
    std::string nest(depth, '[');
    nest += leaf;
    nest.append(depth, ']');
    const std::size_t open = s.find('{');
    if (open != std::string::npos) s.insert(open + 1, std::string(key) + ": " + nest + ", ");
  }

  void trailing_value(std::string& s) {
    static const char* const kTails[] = {" 1", " {}", "\n", " \n\t", "\n\"x\"", " ,", "}"};
    s += pick_of(kTails);
  }

  std::mt19937_64 rng_;
};

// ------------------------------------------------------------------ tests

TEST(ServeProtocolFuzz, SourceLinesParseAndAgree) {
  for (const std::string& line : sources()) {
    EXPECT_EQ(expect_agreement(line), Verdict::kAccepted) << line;
  }
}

TEST(ServeProtocolFuzz, MutantsAgreeWithTheTreeWalk) {
  constexpr std::size_t kMutantsPerSource = 3000;
  std::size_t tally[4] = {0, 0, 0, 0};
  std::uint64_t seed = 20240601;
  for (const std::string& source : sources()) {
    Mutator mutator(seed++);
    for (std::size_t i = 0; i < kMutantsPerSource; ++i) {
      ++tally[static_cast<int>(expect_agreement(mutator.mutate(source)))];
      if (::testing::Test::HasFailure()) return;  // one mutant's report is enough
    }
  }
  // The mutants must exercise every verdict, or the agreement is vacuous.
  EXPECT_GT(tally[static_cast<int>(Verdict::kAccepted)], 500u);
  EXPECT_GT(tally[static_cast<int>(Verdict::kParse)], 2000u);
  EXPECT_GT(tally[static_cast<int>(Verdict::kInvalidConfig)], 1000u);
  EXPECT_EQ(tally[static_cast<int>(Verdict::kOther)], 0u);
}

TEST(ServeProtocolFuzz, NumberTokensGetTheStrtodVerdict) {
  // The lexer takes a run of [0-9.eE+-] (after an optional '-') as one
  // token; its verdict and bits must be strtod's on that token.
  std::mt19937_64 rng(7);
  const std::string alphabet = "0123456789.eE+-";
  for (std::size_t i = 0; i < 200000; ++i) {
    std::string token;
    const std::size_t length = 1 + rng() % 10;
    for (std::size_t k = 0; k < length; ++k) token += alphabet[rng() % alphabet.size()];
    if (i % 4 == 0) {  // near the edges of the double range
      static const char* const kEdges[] = {"2.2250738585072", "4.94065645841246", "1.797693134862",
                                           "2.47032822920623"};
      static const char* const kExps[] = {"e-308", "e-324", "e308", "e-323", "e-309"};
      token = std::string(kEdges[rng() % 4]) + std::to_string(rng() % 100000) + kExps[rng() % 5];
    }
    char* end = nullptr;
    errno = 0;
    const double want = std::strtod(token.c_str(), &end);
    const bool accept =
        end == token.c_str() + token.size() && errno != ERANGE && std::isfinite(want);
    const auto got = json::parse(token);
    ASSERT_EQ(got.has_value(), accept) << token;
    if (accept) {
      ASSERT_TRUE(got.value().is_number()) << token;
      ASSERT_TRUE(same_bits(got.value().as_number(), want)) << token;
    }
  }
}

}  // namespace
