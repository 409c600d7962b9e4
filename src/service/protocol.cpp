#include "service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string_view>
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

std::string set_seed(Request& request, std::string_view,
                     const std::string& value) {
  if (parse_strict_u64(value, &request.seed)) return "";
  return "bad seed '" + value + "'";
}

std::string set_backend(Request& request, std::string_view,
                        const std::string& value) {
  if (!core::backend_known(value)) {
    return "unknown backend '" + value +
           "' (known: " + core::known_backends_string() + ")";
  }
  request.backend = value;
  return "";
}

std::string set_clock(Request& request, std::string_view,
                      const std::string& value) {
  if (parse_double(value, &request.config.clock_ghz)) return "";
  return "bad clock_ghz '" + value + "'";
}

// Every integer key shares the strict grammar: "+4", " 4", "4x", and
// out-of-range values are all protocol errors naming the value, not
// config-validation surprises downstream. (Config overrides allow 0 -
// init_cycles=0 is a valid configuration; EdeaConfig::validate owns the
// per-field semantic ranges.)
template <int core::EdeaConfig::*Field>
std::string set_config_int(Request& request, std::string_view key,
                           const std::string& value) {
  if (parse_strict_int(value, &(request.config.*Field))) return "";
  return "bad value '" + value + "' for key '" + std::string(key) + "'";
}

/// One `key=value` request key. The table below is the protocol's only
/// per-key code: parsing, the outcome-line echo, and the CLI default
/// flags all walk it.
struct KeyRow {
  std::string_view key;
  /// Parses `value` into the request; returns the protocol error, empty
  /// on success. Null for count rows.
  std::string (*set)(Request&, std::string_view key, const std::string&);
  /// Count rows: the DesignPoint field the key sets, under the strict
  /// count grammar (>= 1). Echoed in outcome lines as ` key=<n>` when
  /// n > 1, in table order, so default-valued replies keep their bytes.
  int core::DesignPoint::*count = nullptr;
  /// Also a command-line default flag (parse_design_flag).
  bool cli_flag = false;
};

constexpr KeyRow kKeys[] = {
    {"seed", &set_seed},
    {"backend", &set_backend, nullptr, true},
    {"batch", nullptr, &core::DesignPoint::batch, true},
    {"dilation", nullptr, &core::DesignPoint::dilation, true},
    {"depth_multiplier", nullptr, &core::DesignPoint::depth_multiplier, true},
    {"clock_ghz", &set_clock},
    {"tn", &set_config_int<&core::EdeaConfig::tn>},
    {"tm", &set_config_int<&core::EdeaConfig::tm>},
    {"td", &set_config_int<&core::EdeaConfig::td>},
    {"tk", &set_config_int<&core::EdeaConfig::tk>},
    {"kernel", &set_config_int<&core::EdeaConfig::kernel>},
    {"init_cycles", &set_config_int<&core::EdeaConfig::init_cycles>},
    {"max_tile_out", &set_config_int<&core::EdeaConfig::max_tile_out>},
};

const KeyRow* find_key(std::string_view key) {
  for (const KeyRow& row : kKeys) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// Applies one key=value override through its row. Returns an error
/// message, empty on success.
std::string apply_key(const KeyRow& row, Request& request,
                      const std::string& value) {
  if (row.count == nullptr) return row.set(request, row.key, value);
  if (parse_strict_count(value, &(request.*row.count))) return "";
  return "bad " + std::string(row.key) + " '" + value +
         "' (want a plain integer >= 1)";
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
                              const core::DesignPoint& defaults) {
  defaults.validate("request defaults");
  const std::vector<std::string> tokens = tokenize(line);
  ParsedLine parsed;
  parsed.request.point() = defaults;
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
    const std::string key = token.substr(0, eq);
    const KeyRow* row = find_key(key);
    if (row == nullptr) return malformed("unknown key '" + key + "'");
    const std::string err =
        apply_key(*row, parsed.request, token.substr(eq + 1));
    if (!err.empty()) return malformed(err);
  }
  return parsed;
}

std::string format_outcome_line(const core::SweepOutcome& outcome) {
  const std::string cache = outcome.cache_hit ? "hit" : "miss";
  // Default-valued counts stay silent: echoing them only when the request
  // actually set them keeps every pre-existing response byte-stable.
  std::string counts;
  for (const KeyRow& row : kKeys) {
    if (row.count == nullptr || outcome.*row.count <= 1) continue;
    counts.append(" ").append(row.key).append("=").append(
        std::to_string(outcome.*row.count));
  }
  if (!outcome.ok) {
    return "error " + outcome.name + " " + outcome.config.to_string() +
           " backend=" + outcome.backend + counts + " cache=" + cache +
           " msg=" + outcome.error;
  }
  // The captured summary, not a recomputation from `result`: outcomes
  // served from the persisted cache of a restarted service carry *only*
  // the summary, and both kinds must format bit-identically.
  const core::RunSummary& s = outcome.summary;
  return "ok " + outcome.name + " " + outcome.config.to_string() +
         " backend=" + outcome.backend + counts +
         " cycles=" + std::to_string(s.total_cycles) +
         " ops=" + std::to_string(s.total_ops) +
         " gops=" + format_gops(s.average_gops) +
         " layers=" + std::to_string(s.layer_count) +
         " out=" + format_hex64(s.output_hash) + " cache=" + cache;
}

bool parse_design_flag(int argc, const char* const* argv, int& i,
                       core::DesignPoint& defaults, std::string& error) {
  const std::string flag = argv[i];
  // Flags spell the key's '_' as '-'; the key's own spelling is no flag.
  if (flag.rfind("--", 0) != 0 || flag.find('_') != std::string::npos) {
    return false;
  }
  std::string key = flag.substr(2);
  std::replace(key.begin(), key.end(), '-', '_');
  const KeyRow* row = find_key(key);
  if (row == nullptr || !row->cli_flag) return false;
  if (i + 1 >= argc) {
    error = flag + " needs a value";
    return true;
  }
  const std::string value = argv[++i];
  Request request;
  request.point() = defaults;
  const std::string err = apply_key(*row, request, value);
  if (err.empty()) {
    defaults = request.point();
  } else if (row->count != nullptr) {
    error = flag + " needs a positive count, got '" + value + "'";
  } else {
    error = flag + ": " + err;
  }
  return true;
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
