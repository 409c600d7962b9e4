#include "service/protocol.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

namespace edea::service {

namespace {

/// Splits on runs of whitespace.
std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(std::move(token));
  return tokens;
}

ParsedLine malformed(std::string message) {
  ParsedLine p;
  p.kind = ParsedLine::Kind::kError;
  p.error = std::move(message);
  return p;
}

bool parse_double(const std::string& text, double* out) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    // Reject "nan"/"inf": a non-finite value in a cache key is poison
    // (NaN is unequal to itself) and means nothing physically anyway.
    if (consumed != text.size() || !std::isfinite(value)) return false;
    *out = value;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Applies one key=value override to a request. Returns an error message,
/// empty on success.
std::string apply_override(Request& request, const std::string& key,
                           const std::string& value) {
  if (key == "seed") {
    if (!parse_strict_u64(value, &request.seed)) {
      return "bad seed '" + value + "'";
    }
    return "";
  }
  if (key == "batch") {
    if (!parse_strict_count(value, &request.batch)) {
      return "bad batch '" + value + "' (want a plain integer >= 1)";
    }
    return "";
  }
  if (key == "dilation") {
    if (!parse_strict_count(value, &request.dilation)) {
      return "bad dilation '" + value + "' (want a plain integer >= 1)";
    }
    return "";
  }
  if (key == "depth_multiplier") {
    if (!parse_strict_count(value, &request.depth_multiplier)) {
      return "bad depth_multiplier '" + value +
             "' (want a plain integer >= 1)";
    }
    return "";
  }
  if (key == "backend") {
    if (!core::backend_known(value)) {
      return "unknown backend '" + value +
             "' (known: " + core::known_backends_string() + ")";
    }
    request.backend = value;
    return "";
  }
  if (key == "clock_ghz") {
    if (!parse_double(value, &request.config.clock_ghz)) {
      return "bad clock_ghz '" + value + "'";
    }
    return "";
  }
  int* field = nullptr;
  core::EdeaConfig& c = request.config;
  if (key == "tn") field = &c.tn;
  else if (key == "tm") field = &c.tm;
  else if (key == "td") field = &c.td;
  else if (key == "tk") field = &c.tk;
  else if (key == "kernel") field = &c.kernel;
  else if (key == "init_cycles") field = &c.init_cycles;
  else if (key == "max_tile_out") field = &c.max_tile_out;
  if (field == nullptr) return "unknown key '" + key + "'";
  // Every integer key shares the strict grammar: "+4", " 4", "4x", and
  // out-of-range values are all protocol errors naming the value, not
  // config-validation surprises downstream. (Config overrides allow 0 -
  // init_cycles=0 is a valid configuration; EdeaConfig::validate owns the
  // per-field semantic ranges.)
  if (!parse_strict_int(value, field)) {
    return "bad value '" + value + "' for key '" + key + "'";
  }
  return "";
}

/// Strict digit run starting at `pos`; advances pos past it. Returns
/// false when no digit is there or the value overflows uint64.
bool scan_u64(const std::string& text, std::size_t& pos, std::uint64_t* out) {
  if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') return false;
  std::uint64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
    ++pos;
  }
  *out = value;
  return true;
}

std::string format_gops(double gops) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << gops;
  return os.str();
}

std::string format_hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

// One digit-accumulation loop with an explicit pre-multiply range check:
// overflow is detected arithmetically (value > (max - digit) / 10 would
// overflow), never via std::stoi-family exception behavior, and the
// digit-only scan rejects whitespace, signs, and trailing junk in one
// pass.
bool parse_strict_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool parse_strict_int(const std::string& text, int* out) {
  std::uint64_t value = 0;
  if (!parse_strict_u64(text, &value)) return false;
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;  // out of int range
  }
  *out = static_cast<int>(value);
  return true;
}

bool parse_strict_count(const std::string& text, int* out) {
  int value = 0;
  if (!parse_strict_int(text, &value) || value < 1) return false;
  *out = value;
  return true;
}

std::string Request::job_name() const {
  return network + "@" + std::to_string(seed);
}

ParsedLine parse_request_line(const std::string& line,
                              const std::string& default_backend,
                              int default_batch, int default_dilation,
                              int default_depth_multiplier) {
  EDEA_REQUIRE(core::backend_known(default_backend),
               "default backend '" + default_backend +
                   "' is not registered (known: " +
                   core::known_backends_string() + ")");
  EDEA_REQUIRE(default_batch >= 1,
               "default batch must be >= 1, got " +
                   std::to_string(default_batch));
  EDEA_REQUIRE(default_dilation >= 1,
               "default dilation must be >= 1, got " +
                   std::to_string(default_dilation));
  EDEA_REQUIRE(default_depth_multiplier >= 1,
               "default depth multiplier must be >= 1, got " +
                   std::to_string(default_depth_multiplier));
  const std::vector<std::string> tokens = tokenize(line);
  ParsedLine parsed;
  parsed.request.backend = default_backend;
  parsed.request.batch = default_batch;
  parsed.request.dilation = default_dilation;
  parsed.request.depth_multiplier = default_depth_multiplier;
  if (tokens.empty() || tokens.front().front() == '#') {
    return parsed;  // kEmpty
  }

  const std::string& verb = tokens.front();
  if (verb == "stats") {
    if (tokens.size() != 1) return malformed("stats takes no arguments");
    parsed.kind = ParsedLine::Kind::kStats;
    return parsed;
  }
  if (verb == "mode") {
    if (tokens.size() != 2) {
      return malformed("mode takes exactly one argument (ordered|unordered)");
    }
    if (tokens[1] != "ordered" && tokens[1] != "unordered") {
      return malformed("bad mode '" + tokens[1] +
                       "' (expected ordered|unordered)");
    }
    parsed.kind = ParsedLine::Kind::kMode;
    parsed.unordered = tokens[1] == "unordered";
    return parsed;
  }
  if (verb == "batch-begin") {
    if (tokens.size() != 2) {
      return malformed("batch-begin takes exactly one argument (line count)");
    }
    int n = 0;
    // The strict count grammar: "0", "+4", " 4", "4x", and overflow all
    // fail here - a frame size is wire data and parses like batch=.
    if (!parse_strict_count(tokens[1], &n)) {
      return malformed("bad batch-begin count '" + tokens[1] +
                       "' (want a plain integer >= 1)");
    }
    if (n > kMaxFrameLines) {
      return malformed("batch-begin count " + tokens[1] + " exceeds the " +
                       std::to_string(kMaxFrameLines) + "-line frame limit");
    }
    parsed.kind = ParsedLine::Kind::kBatchBegin;
    parsed.frame_size = n;
    return parsed;
  }
  if (verb == "batch-end") {
    if (tokens.size() != 1) return malformed("batch-end takes no arguments");
    parsed.kind = ParsedLine::Kind::kBatchEnd;
    return parsed;
  }
  if (verb != "run") {
    return malformed("unknown verb '" + verb +
                     "' (expected run|stats|mode|batch-begin|batch-end|#)");
  }
  if (tokens.size() < 2) {
    return malformed("run needs a network name");
  }

  parsed.kind = ParsedLine::Kind::kRun;
  parsed.request.network = tokens[1];
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      return malformed("expected key=value, got '" + token + "'");
    }
    const std::string err = apply_override(
        parsed.request, token.substr(0, eq), token.substr(eq + 1));
    if (!err.empty()) return malformed(err);
  }
  return parsed;
}

std::string format_outcome_line(const core::SweepOutcome& outcome) {
  const std::string cache = outcome.cache_hit ? "hit" : "miss";
  // Default-valued knobs stay silent: echoing batch/dilation/
  // depth_multiplier only when the request actually set them keeps every
  // pre-existing response byte-stable.
  std::string batch =
      outcome.batch > 1 ? " batch=" + std::to_string(outcome.batch) : "";
  if (outcome.dilation > 1) {
    batch += " dilation=" + std::to_string(outcome.dilation);
  }
  if (outcome.depth_multiplier > 1) {
    batch += " depth_multiplier=" + std::to_string(outcome.depth_multiplier);
  }
  if (!outcome.ok) {
    return "error " + outcome.name + " " + outcome.config.to_string() +
           " backend=" + outcome.backend + batch + " cache=" + cache +
           " msg=" + outcome.error;
  }
  // The captured summary, not a recomputation from `result`: outcomes
  // served from the persisted cache of a restarted service carry *only*
  // the summary, and both kinds must format bit-identically.
  const core::RunSummary& s = outcome.summary;
  return "ok " + outcome.name + " " + outcome.config.to_string() +
         " backend=" + outcome.backend + batch +
         " cycles=" + std::to_string(s.total_cycles) +
         " ops=" + std::to_string(s.total_ops) +
         " gops=" + format_gops(s.average_gops) +
         " layers=" + std::to_string(s.layer_count) +
         " out=" + format_hex64(s.output_hash) + " cache=" + cache;
}

std::string format_stats_line(const CacheStats& stats) {
  std::string line = "stats hits=" + std::to_string(stats.hits) +
                     " misses=" + std::to_string(stats.misses) +
                     " evictions=" + std::to_string(stats.evictions) +
                     " entries=" + std::to_string(stats.entries) +
                     " inflight=" + std::to_string(stats.in_flight);
  // Admission counters appear only when a bounded queue is configured:
  // the same only-when-non-default rule that keeps batch= silent keeps
  // every pre-admission stats line byte-stable.
  if (stats.max_queue > 0) {
    line += " queued=" + std::to_string(stats.queued) +
            " rejected=" + std::to_string(stats.rejected) +
            " peak_queue=" + std::to_string(stats.peak_queue);
  }
  return line;
}

std::string format_busy_line(std::uint64_t id, int retry_ms) {
  return "busy id=" + std::to_string(id) +
         " retry_ms=" + std::to_string(retry_ms);
}

std::string format_unordered_line(std::uint64_t id, const std::string& line) {
  return "id=" + std::to_string(id) + " " + line;
}

bool parse_busy_line(const std::string& line, std::uint64_t* id,
                     int* retry_ms) {
  constexpr const char* kPrefix = "busy id=";
  constexpr const char* kRetry = " retry_ms=";
  if (line.rfind(kPrefix, 0) != 0) return false;
  std::size_t pos = std::string(kPrefix).size();
  std::uint64_t parsed_id = 0;
  if (!scan_u64(line, pos, &parsed_id)) return false;
  if (line.compare(pos, std::string(kRetry).size(), kRetry) != 0) return false;
  pos += std::string(kRetry).size();
  std::uint64_t ms = 0;
  if (!scan_u64(line, pos, &ms) || pos != line.size() ||
      ms > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *id = parsed_id;
  *retry_ms = static_cast<int>(ms);
  return true;
}

bool parse_unordered_line(const std::string& line, std::uint64_t* id,
                          std::string* rest) {
  if (line.rfind("id=", 0) != 0) return false;
  std::size_t pos = 3;
  std::uint64_t parsed_id = 0;
  if (!scan_u64(line, pos, &parsed_id)) return false;
  if (pos >= line.size() || line[pos] != ' ') return false;
  *id = parsed_id;
  *rest = line.substr(pos + 1);
  return true;
}

}  // namespace edea::service
