// session.hpp - the session layer of the service tier.
//
// A Session serves exactly one connection (a transport Stream) of the
// line protocol (service/protocol.hpp) against a shared
// SimulationService. It owns everything between raw lines and dispatch:
//
//   - line framing: one request per line in, one response per line out,
//     plus batch frames (`batch-begin N` .. `batch-end`) that cork up to
//     N replies into fewer transport writes,
//   - per-session request ids: every answering line (run, stats, mode,
//     malformed) gets a monotonically increasing id in arrival order;
//     well-formed frame control lines answer nothing and take no id,
//   - reply framing modes: ordered (default - responses written strictly
//     in request-id order, byte-identical to the pre-pipelining protocol)
//     or unordered (negotiated by a `mode unordered` line - responses
//     stream as their simulations finish, each prefixed `id=<n> `),
//   - admission: when the service runs a bounded queue, a run line that
//     would start a fresh simulation at the bound answers
//     `busy id=<n> retry_ms=<m>` in its slot instead of queueing,
//   - error replies: malformed lines answer "protocol-error <msg>" in
//     their slot; unknown networks answer an error outcome line,
//   - workload resolution: zoo names materialize through a shared
//     WorkloadCatalog so duplicate requests across sessions share one
//     materialized network; each run holds its workload's pin until its
//     completion callback has run.
//
// Concurrency: serve() runs two threads - the calling thread reads,
// parses, and submits (so independent requests simulate concurrently and
// duplicates coalesce in the service), while a writer thread drains
// completed reply slots, corking every consecutively ready reply into one
// Stream::write_lines call. Completions arrive via
// SimulationService::submit_streaming callbacks, so neither thread ever
// blocks inside the simulation pool; sessions still run on dedicated
// transport threads, never on the pool (see transport.hpp).
//
// `stats` is a barrier: the reader stops submitting until every preceding
// submission of the session has completed, so the reported counters
// reflect exactly the session's preceding requests (all completed) and
// nothing after - deterministic for a given request stream, which is what
// lets CI byte-compare socket sessions against the stdio reference.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "service/simulation_service.hpp"

namespace edea::service {

class Stream;

/// Thread-safe, byte-bounded registry of materialized workloads: the
/// quantized network and synthetic input behind one (zoo name, seed,
/// dilation, depth multiplier) tuple. Materialization is deterministic in
/// the key, so an evicted workload re-materializes byte-identically.
///
/// Concurrency: the catalog mutex only guards finding or inserting a
/// per-key entry. The first requester of a key synthesizes it outside the
/// mutex (its layers in parallel on the shared pool); later requesters of
/// that key wait for that one synthesis, requesters of other keys do not
/// wait at all. A synthesis that throws hands every waiter the same
/// exception and leaves no entry behind.
///
/// Memory: acquire() returns a pin. Once the resident workloads exceed
/// kByteBudget, unpinned ones are evicted least recently used first;
/// pinned ones stay, and a pin keeps its workload alive (and immutable)
/// even after its entry is evicted.
class WorkloadCatalog {
 public:
  struct Workload {
    std::vector<nn::QuantDscLayer> layers;
    nn::Int8Tensor input;
    /// network_fingerprint(layers, input), hashed once at
    /// materialization. Hashing walks every weight byte (~hundreds of
    /// microseconds), so recomputing it per request would dominate the
    /// cache-hit serving path - sessions stamp this into each SweepJob
    /// instead (SweepJob::fingerprint).
    std::uint64_t fingerprint = 0;
  };

  /// Resident bytes (weights, Non-Conv parameters, inputs) beyond which
  /// unpinned workloads are evicted: about ten MobileNet-scale networks
  /// (mobilenet-cifar is 3.4 MB), or ~130 of mobilenet-0.25x.
  static constexpr std::size_t kByteBudget = std::size_t{32} << 20;

  /// Test seam: called with the key's network and seed on the thread that
  /// is about to synthesize it, outside the catalog mutex.
  using SynthesisHook =
      std::function<void(const std::string& network, std::uint64_t seed)>;

  explicit WorkloadCatalog(SynthesisHook before_synthesis = nullptr);

  /// Resolves (materializing on first use) and pins the workload: it
  /// stays alive and immutable while any copy of the returned pointer
  /// does. `dilation` is applied to every layer of the zoo geometry,
  /// scaling its padding along so output extents are preserved;
  /// `depth_multiplier` multiplies into each layer's existing multiplier
  /// (so it composes with zoo networks that already carry one, e.g.
  /// MobileNetV2 expansion factors). Throws PreconditionError for names
  /// the model zoo cannot resolve or non-positive transforms.
  [[nodiscard]] std::shared_ptr<const Workload> acquire(
      const std::string& network, std::uint64_t seed, int dilation = 1,
      int depth_multiplier = 1);

  /// acquire() with a permanent pin: the entry is never evicted and the
  /// reference stays valid for the catalog's lifetime. For callers that
  /// keep raw references; sessions use acquire().
  [[nodiscard]] const Workload& resolve(const std::string& network,
                                        std::uint64_t seed, int dilation = 1,
                                        int depth_multiplier = 1);

  /// Bytes of the materialized workloads the catalog holds, pinned or
  /// not. Above kByteBudget only while pins keep it there.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Entries the catalog holds, including ones still synthesizing.
  [[nodiscard]] std::size_t size() const;

 private:
  using Key = std::tuple<std::string, std::uint64_t, int, int>;
  struct Entry;
  using Entries = std::map<Key, std::shared_ptr<Entry>>;

  std::shared_ptr<const Workload> find_or_synthesize(const Key& key,
                                                     bool permanent);
  void evict_unpinned();  // requires mutex_

  SynthesisHook before_synthesis_;
  mutable std::mutex mutex_;
  std::condition_variable synthesized_;  ///< an in-flight entry finished
  Entries entries_;
  /// Evictable (materialized, not permanently pinned) entries, most
  /// recently used first; eviction walks from the back.
  std::list<Entries::iterator> lru_;
  std::size_t resident_bytes_ = 0;
};

struct SessionOptions {
  /// Record every submitted job and its outcome (in request order) in
  /// SessionStats - what the stdio server's --verify gate replays against
  /// a serial SweepRunner.
  bool record_traffic = false;

  /// The design point `run` requests start from before their key=value
  /// overrides (the server's --backend / --batch / --dilation /
  /// --depth-multiplier flags). Validated at Session construction: a wrong
  /// server default is an operator error, not a client's protocol error.
  core::DesignPoint defaults;

  /// Whether a client's `mode unordered` request is honored. False (the
  /// server's --ordered flag) locks the session to ordered replies: the
  /// request answers `mode ordered`, stating what is in effect - the
  /// byte-exact reference behavior CI compares against.
  bool allow_unordered = true;

  /// The retry hint busy replies advertise (`busy id=<n> retry_ms=<m>`).
  /// Must be >= 1 - validated at Session construction.
  int busy_retry_ms = 25;
};

/// What one serve() call did. Counters cover the whole session; the
/// traffic vectors are filled only under SessionOptions::record_traffic
/// and are index-aligned (jobs[i] produced outcomes[i]).
struct SessionStats {
  std::uint64_t requests = 0;         ///< ids assigned (= answering lines)
  std::uint64_t runs = 0;             ///< `run` lines (incl. unresolved)
  std::uint64_t protocol_errors = 0;  ///< malformed lines
  std::uint64_t responses_written = 0;
  std::uint64_t frames = 0;        ///< well-formed batch frames opened
  std::uint64_t busy_replies = 0;  ///< runs rejected by admission control
  std::vector<core::SweepJob> jobs;          ///< resolved, submitted jobs
  std::vector<core::SweepOutcome> outcomes;  ///< their outcomes, in order
  /// The pins of the workloads jobs[i] points into, so a replay after the
  /// session (the --verify gate) never reads an evicted workload.
  std::vector<std::shared_ptr<const WorkloadCatalog::Workload>> workloads;
};

class Session {
 public:
  Session(SimulationService& service, WorkloadCatalog& catalog,
          SessionOptions options = SessionOptions());

  /// Serves the connection until its input is exhausted, then drains all
  /// pending responses. Blocking; returns the session's statistics.
  SessionStats serve(Stream& stream);

 private:
  SimulationService& service_;
  WorkloadCatalog& catalog_;
  SessionOptions options_;
};

}  // namespace edea::service
