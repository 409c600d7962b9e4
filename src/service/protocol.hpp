// protocol.hpp - the line-oriented text protocol of the simulation service.
//
// One request per line, one response per line - drivable from a file, a
// pipe, or (later) a socket, with no framing beyond '\n'. Grammar:
//
//   run <network> [key=value ...]     submit a simulation request
//   stats                             report cache + in-flight counters
//   mode ordered|unordered            select the session's reply framing
//   batch-begin <n>                   open a pipelined frame of n lines
//   batch-end                         close the open frame
//   # anything                        comment (ignored, like blank lines)
//
// <network> is a model-zoo name (nn::zoo_specs). Recognized keys:
//   seed       workload seed (weights + input), default 1
//   backend    accelerator backend id (core/backend.hpp id table):
//              edea (default) or serialized; an unknown id is a protocol
//              error - the id table is the protocol's vocabulary, and a
//              typo'd dataflow must fail loudly, not simulate something
//              else
//   batch      images per run (>= 1, default 1): all images share one
//              planned arena/setup (AcceleratorBackend::run_network_batch)
//              and are bit-identical to `batch` standalone runs, so the
//              reply's measurements are per image and unchanged - batch
//              is a cost/amortization knob, not an arithmetic one. The
//              value must be a plain decimal integer: leading '+',
//              whitespace, or trailing junk is a protocol error
//   dilation   DWC dilation applied to every layer of the resolved
//              network (>= 1, default 1; padding scales with it so output
//              extents are preserved). Same strict-integer grammar as
//              batch. Unlike batch this is an arithmetic knob: a dilated
//              workload is a different computation and a different cache
//              key
//   depth_multiplier
//              extra depthwise multiplier applied multiplicatively to
//              every layer (>= 1, default 1; composes with multipliers a
//              zoo network already carries, e.g. MobileNetV2 expansion
//              factors). Same strict-integer grammar; arithmetic knob
//   tn tm td tk kernel init_cycles max_tile_out   EdeaConfig overrides;
//              same strict-integer grammar as batch (>= 0 - semantic
//              ranges are EdeaConfig::validate's job, reported in the
//              outcome line)
//   clock_ghz  clock in GHz
//
// Responses (one per `run`, in request order; <network>@<seed> is the
// request's job_name(), <config> is EdeaConfig::to_string(), <backend>
// the resolved backend id; `batch=<n>`, `dilation=<n>`, and
// `depth_multiplier=<n>` are echoed after backend= - in that order - only
// when each n > 1, keeping default-valued responses byte-identical to the
// earlier protocol):
//   ok <network>@<seed> <config> backend=<backend> [batch=<n>]
//      [dilation=<n>] [depth_multiplier=<n>] cycles=<n>
//      ops=<n> gops=<x> layers=<n> out=<hex64> cache=hit|miss
//   error <network>@<seed> <config> backend=<backend> [batch=<n>]
//      [dilation=<n>] [depth_multiplier=<n>] cache=hit|miss msg=<text>
//
// A `stats` request answers with one line of exact service counters:
//   stats hits=<n> misses=<n> evictions=<n> entries=<n> inflight=<n>
//      [queued=<n> rejected=<n> peak_queue=<n>]
// The admission trio is echoed only when the service runs with a bounded
// admission queue (max_queue > 0) - the same only-when-non-default rule
// the outcome line uses for batch=, so every pre-admission stats line
// stays byte-identical. The session layer (service/session.hpp) serves
// `stats` as a barrier - the reply reflects every preceding request of
// the session, completed, and nothing submitted after it - so the line is
// deterministic for a given request stream.
//
// Pipelining (PR 9). A client may wrap up to kMaxFrameLines request lines
// in a frame:
//   batch-begin <n>
//   <exactly n answering lines>
//   batch-end
// Well-formed batch-begin/batch-end lines answer nothing (like comments)
// and consume no request id; every line between them is parsed and
// answered exactly as if it had arrived bare, so a frame is purely a
// transport-batching hint (the session corks the frame's replies into
// fewer writes). Bare lines stay valid - they are 1-frames. Frame
// violations (nested batch-begin, batch-end outside a frame or before n
// lines, a non-batch-end line after n lines, EOF inside a frame) answer
// `protocol-error ...` like any malformed line.
//
// Reply framing is per-session and negotiated on the wire:
//   mode ordered       replies in request-id order (the default - byte
//                      identical to the pre-pipelining protocol)
//   mode unordered     replies stream as they complete, each prefixed
//                      with `id=<n> ` so the client can match them
// The server answers with the mode now in effect (`mode ordered` or
// `mode unordered`, id-prefixed iff the effective mode is unordered); a
// server running --ordered refuses the switch by answering
// `mode ordered`.
//
// Under a bounded admission queue, a `run` line that would start a fresh
// simulation while max_queue admitted jobs are already in flight is not
// queued; it answers
//   busy id=<n> retry_ms=<m>
// in its slot (the id it would have had), and the client owns the retry
// (resubmit after ~retry_ms with jitter; see PipelineClient). Cache hits
// and requests coalescing onto an in-flight duplicate are always
// admitted - they start no new work.
//
// The parser validates shape only (tokens, numbers, known keys); whether a
// configuration can map a network is the simulation's verdict, reported in
// the outcome line - infeasible points are data, not protocol errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/design_point.hpp"
#include "core/sweep_runner.hpp"
#include "service/simulation_service.hpp"

namespace edea::service {

/// A parsed `run` request: the zoo network and seed, plus the design
/// point - the parse call's defaults with the line's key=value overrides
/// applied. Always a point DesignPoint::validate accepts: unknown backend
/// ids, non-positive counts and non-finite clocks never parse.
struct Request : core::DesignPoint {
  std::string network;     ///< model-zoo name (unresolved)
  std::uint64_t seed = 1;  ///< synthetic weight/input seed

  /// Canonical job name: "<network>@<seed>" - what outcome lines echo.
  [[nodiscard]] std::string job_name() const;
};

/// Most request lines one frame may carry. Far above any sane pipeline
/// depth; a larger N is a protocol error, because accepting an absurd
/// frame size would let one malformed line commit the session to
/// swallowing gigabytes as "frame content".
inline constexpr int kMaxFrameLines = 4096;

/// Longest request line a socket session reads, in bytes (without the
/// '\n'). Far above any valid line (a `run` line with every key set is a
/// few hundred bytes); a peer that sends more - or never sends '\n' at
/// all - gets one `protocol-error` reply in that line's slot and the
/// connection closes, so a session buffers at most this plus one recv
/// chunk of any peer's input.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Result of parsing one protocol line.
struct ParsedLine {
  enum class Kind {
    kEmpty,       ///< blank line or comment - nothing to do
    kRun,         ///< `request` holds a simulation request
    kStats,       ///< client asked for cache counters
    kMode,        ///< reply-framing switch - `unordered` holds the ask
    kBatchBegin,  ///< frame open - `frame_size` holds its line count
    kBatchEnd,    ///< frame close
    kError,       ///< malformed line - `error` explains
  };
  Kind kind = Kind::kEmpty;
  Request request;
  std::string error;
  /// kBatchBegin: the declared line count (1..kMaxFrameLines).
  int frame_size = 0;
  /// kMode: true iff the client asked for unordered replies.
  bool unordered = false;
};

/// Strict decimal parsers - the single integer grammar of the wire
/// protocol. A value parses iff it is plain decimal digits, fully
/// consumed: no leading whitespace, no '+'/'-' sign, no trailing junk
/// (all of which std::stoi-family parsers tolerate), and no overflow -
/// out-of-range values like 99999999999999 are rejected by digit
/// accumulation with an explicit range check, never via exception
/// behavior. Exposed here (not buried in the .cpp) so the negative
/// protocol tests can probe inputs the whitespace-splitting tokenizer
/// could never deliver, like " 4".
///   parse_strict_u64    any uint64 value (seeds)
///   parse_strict_int    int values >= 0 (EdeaConfig overrides;
///                       init_cycles=0 is valid)
///   parse_strict_count  int values >= 1 (batch/dilation/depth_multiplier)
/// Each returns false without touching *out on rejection.
[[nodiscard]] bool parse_strict_u64(const std::string& text,
                                    std::uint64_t* out);
[[nodiscard]] bool parse_strict_int(const std::string& text, int* out);
[[nodiscard]] bool parse_strict_count(const std::string& text, int* out);

/// Parses one request line. Never throws on wire input: malformed lines -
/// including unknown backend= ids and non-positive batch=, dilation=, or
/// depth_multiplier= values - are a kError result (a service must survive
/// bad clients). `run` requests start from `defaults` (the server's
/// --backend / --batch / --dilation / --depth-multiplier) and apply the
/// line's keys on top. The defaults are caller configuration, not wire
/// data, so a point DesignPoint::validate rejects is a PreconditionError.
[[nodiscard]] ParsedLine parse_request_line(
    const std::string& line, const core::DesignPoint& defaults = {});

/// The request dimensions as command-line flags, shared by the server and
/// client CLIs: --backend ID, --batch N, --dilation N and
/// --depth-multiplier N - the protocol keys with '_' spelled '-', under
/// the same value grammar. When argv[i] is one of them, consumes its
/// value (advancing i), sets the matching field of `defaults`, and
/// returns true; a missing or bad value leaves `defaults` unchanged and
/// sets `error`. Returns false, touching nothing, for any other argument.
[[nodiscard]] bool parse_design_flag(int argc, const char* const* argv,
                                     int& i, core::DesignPoint& defaults,
                                     std::string& error);

/// Formats the response line for one completed request.
[[nodiscard]] std::string format_outcome_line(
    const core::SweepOutcome& outcome);

/// Formats the `stats` response line. The admission counters (queued=,
/// rejected=, peak_queue=) are echoed only when `stats.max_queue > 0` -
/// a service without a bounded admission queue keeps the exact
/// pre-admission bytes.
[[nodiscard]] std::string format_stats_line(const CacheStats& stats);

/// Formats a busy (admission-rejected) reply: `busy id=<n> retry_ms=<m>`.
/// The line is self-identifying in both reply modes - it carries its
/// request id in-band, so an unordered session does not prefix it again.
[[nodiscard]] std::string format_busy_line(std::uint64_t id, int retry_ms);

/// Frames one reply line for an unordered session: `id=<n> <line>`.
[[nodiscard]] std::string format_unordered_line(std::uint64_t id,
                                                const std::string& line);

/// Reply parsers - the exact inverses of the formatters above, for the
/// client side of the wire (PipelineClient's reply demultiplexer). Each
/// matches its line shape strictly (digit runs, exact separators, nothing
/// trailing) and returns false without touching the outputs on any
/// mismatch - a reply that merely *starts* like a busy line is some other
/// line.

/// Parses `busy id=<n> retry_ms=<m>` (format_busy_line's output) exactly.
[[nodiscard]] bool parse_busy_line(const std::string& line, std::uint64_t* id,
                                   int* retry_ms);

/// Parses the `id=<n> ` unordered framing prefix (format_unordered_line's
/// output); on success `*rest` is the payload with the prefix stripped.
[[nodiscard]] bool parse_unordered_line(const std::string& line,
                                        std::uint64_t* id, std::string* rest);

}  // namespace edea::service
