// simulation_service.hpp - a long-running simulation front end over the
// sweep runtime.
//
// Design-space studies are embarrassingly request-parallel: every request
// is an independent (network, accelerator config, backend) simulation.
// The service accepts such requests asynchronously, runs them on a
// util::ThreadPool, and memoizes completed results in a bounded LRU cache
// keyed by (network fingerprint, core::DesignPoint) - in DSE refinement
// the same points are revisited constantly, and a revisit should cost a
// hash lookup, not a simulation. Every dimension of the point is part of
// the key: a different dataflow, batch (arena plan), transform or clock
// is a different experiment.
//
// Concurrency contract:
//   - submit()/submit_batch()/serve()/cache_stats() are thread-safe; many
//     client threads may hammer one service instance,
//   - identical requests in flight are coalesced: the second submitter
//     waits on the first simulation instead of launching a duplicate
//     (and is accounted as a cache hit),
//   - results are bit-identical to a serial core::SweepRunner run of the
//     same jobs - the cache returns stored outcomes verbatim (only `name`
//     and `cache_hit` are rewritten per request),
//   - the destructor drains in-flight work before returning, so a service
//     never outlives its tasks.
//
// Lifetime contract: like SweepJob everywhere else, the pointed-to layers
// and input tensor must stay alive until the request's future is ready.
// Do not call future.get() from inside a task running on the same pool -
// a fully busy pool of blocked waiters cannot make progress.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sweep_runner.hpp"
#include "util/hash.hpp"

namespace edea::util {
class ThreadPool;
}

namespace edea::service {

/// Counters of the memoizing result cache. `hits + misses` equals the
/// number of submissions; every submission increments exactly one of the
/// two under the service lock, so the counters are exact even under
/// concurrent submission.
struct CacheStats {
  std::uint64_t hits = 0;        ///< served from cache (or coalesced)
  std::uint64_t misses = 0;      ///< required a fresh simulation
  std::uint64_t evictions = 0;   ///< completed results dropped by the LRU
  std::size_t entries = 0;       ///< resident entries (live + persisted)
  /// Requests currently simulating (submitted, not yet completed). Unlike
  /// the counters above this is a gauge - a snapshot, not a running total.
  std::uint64_t in_flight = 0;

  // --- admission control (meaningful when max_queue > 0) ------------------
  /// Gauge: admitted jobs sitting in the fair queue, not yet picked up by
  /// a runner. Zero at any stats barrier (the session drains first).
  std::uint64_t queued = 0;
  /// Streaming submissions answered `busy` instead of admitted (total).
  std::uint64_t rejected = 0;
  /// High-water mark of admission-counted jobs in flight. Bounded by
  /// max_queue *by construction*: the admission check rejects before the
  /// gauge could exceed it, so peak_queue <= max_queue is an invariant,
  /// not a hope.
  std::uint64_t peak_queue = 0;
  /// The configured ServiceOptions::max_queue (0 = unbounded). Carried in
  /// the snapshot so format_stats_line knows whether to echo the trio.
  std::uint64_t max_queue = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

/// Configuration of a SimulationService.
struct ServiceOptions {
  /// 0 = run requests on the process-wide ThreadPool::shared();
  /// n > 0 = own a dedicated pool of n workers.
  unsigned worker_threads = 0;

  /// Maximum number of *completed* results the cache retains (LRU beyond
  /// that). 0 disables memoization entirely: every submission simulates,
  /// and identical in-flight requests are not coalesced.
  std::size_t cache_capacity = 256;

  /// Tile-level parallelism inside each simulated request: every layer's
  /// buffer tiles split over at most this many workers on the shared pool
  /// (see SweepOptions::tile_parallelism). 1 = serial tiles (default).
  /// Zero and negative values are a PreconditionError at construction -
  /// results are bit-identical at every width, so the knob only trades
  /// request latency against pool pressure, and an accidental 0 from
  /// caller arithmetic must not silently pick a policy.
  int tile_parallelism = 1;

  /// Bounded admission for streaming (wire-facing) submissions: while
  /// this many admission-counted jobs are in flight, submit_streaming
  /// answers Admission::kBusy for any request that would start a *fresh*
  /// simulation. Cache hits and coalescing onto an in-flight duplicate
  /// are always admitted - they start no new work. 0 (default) disables
  /// the bound entirely and keeps every counter and stats line exactly as
  /// before. Direct submit()/serve() callers are in-process batch code,
  /// not wire traffic, and bypass the bound.
  std::size_t max_queue = 0;
};

/// Verdict of an admission-checked submission (submit_streaming).
enum class Admission {
  kAdmitted,  ///< the outcome will be delivered to the callback
  kBusy,      ///< rejected by the bounded queue - retry later; the
              ///< callback will never run
};

class SimulationService {
 public:
  using Options = ServiceOptions;
  /// Completion delivery for submit_streaming. Runs inline on the
  /// submitting thread for cache hits, or on a pool runner thread when
  /// the simulation finishes. Must be cheap and must never block on the
  /// service (it may run inside the completion path) or throw.
  ///
  /// Result fidelity: only the outcome of a *fresh* simulation carries
  /// the per-layer result. Anything served from cache - a warm hit, a
  /// duplicate coalesced onto an in-flight simulation, a persisted-store
  /// hit - arrives summary-only (SweepOutcome::summary_only == true,
  /// empty result): the wire protocol reports nothing below the summary,
  /// and deep-copying the cached activation tensors per request was the
  /// dominant cost of the hit serving path. Callers needing per-layer
  /// data from cached results must use submit(), which always delivers
  /// full outcomes for in-memory hits.
  using CompletionCallback = std::function<void(core::SweepOutcome)>;

  explicit SimulationService(Options options = Options());
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Submits one request. The returned future resolves to the job's
  /// outcome: a cache hit resolves immediately (cache_hit = true), a miss
  /// resolves when its simulation finishes on the pool. Throws
  /// PreconditionError if the job references no network.
  [[nodiscard]] std::future<core::SweepOutcome> submit(core::SweepJob job);

  /// Hands out a fresh fair-scheduling lane id. Each session takes one at
  /// construction; direct submit() traffic shares lane 0.
  [[nodiscard]] std::uint64_t new_session_id();

  /// The streaming (wire-facing) submission path: admission-checked,
  /// fair-scheduled, callback-delivered. Returns kBusy - and does nothing
  /// except count the rejection - when the job would start a fresh
  /// simulation while ServiceOptions::max_queue admission-counted jobs
  /// are already in flight. Otherwise the outcome reaches `done` exactly
  /// once (inline for hits, from a pool runner for misses; a failed
  /// simulation task delivers an ok=false outcome rather than an
  /// exception). Fresh simulations are queued per `session_id` and
  /// dispatched round-robin across sessions with pending work, so one
  /// bulk submitter cannot starve interactive sessions. Throws
  /// PreconditionError for the same malformed jobs submit() rejects -
  /// always *before* the callback is registered, so on a throw the
  /// callback has not run and never will.
  [[nodiscard]] Admission submit_streaming(core::SweepJob job,
                                           std::uint64_t session_id,
                                           CompletionCallback done);

  /// Submits a batch; future i corresponds to jobs[i]. All requests are
  /// in flight concurrently before this returns.
  [[nodiscard]] std::vector<std::future<core::SweepOutcome>> submit_batch(
      std::vector<core::SweepJob> jobs);

  /// Convenience blocking batch: submit everything, wait for everything.
  /// Outcome i corresponds to jobs[i], exactly like SweepRunner::run.
  [[nodiscard]] std::vector<core::SweepOutcome> serve(
      std::vector<core::SweepJob> jobs);

  /// Snapshot of the cache counters.
  [[nodiscard]] CacheStats cache_stats() const;

  /// Blocks until no request is in flight (futures may still be pending
  /// delivery to their waiters, but all simulations have finished).
  void wait_idle();

  // --- cache persistence (survives service restarts) -----------------------
  //
  // A cache file stores (network fingerprint, DesignPoint) -> outcome
  // *summaries* - everything the line protocol reports (ok/error text
  // plus the RunSummary), not per-layer tensors - in a versioned,
  // checksummed binary format (util/binary.hpp + util/hash.hpp). The
  // format is at version 4 (version 1 predates backend-keyed entries,
  // version 2 predates batch-keyed entries and the summary's
  // peak_arena_bytes field, version 3 predates the dilation/depth-
  // multiplier key fields); files of any other version are rejected
  // loudly, never migrated - a v1 file cannot say which dataflow produced
  // its summaries, a v2 file can neither say which batch nor decode into
  // today's wider RunSummary, and a v3 file cannot say which workload
  // transform its fingerprints were computed over. A request
  // that hits a persisted entry resolves immediately with a summary-only
  // outcome (SweepOutcome::summary_only) that formats bit-identically to
  // the line the original simulation produced, and is accounted as a
  // cache hit. Persisted entries are pinned: they never count against
  // cache_capacity and are never evicted (the file bounds them).

  /// Writes every completed result - live LRU entries plus previously
  /// loaded persisted entries - to `path`, atomically enough for a service
  /// restart (full rewrite, deterministic entry order). Returns the number
  /// of entries written. Throws ResourceError if the file cannot be
  /// written. Call after draining traffic (e.g. at shutdown); in-flight
  /// entries are not persisted.
  std::size_t save_cache(const std::string& path) const;

  /// Loads a cache file previously written by save_cache. Returns the
  /// number of entries loaded; a missing file is not an error (a first
  /// start has no cache) and returns 0. A malformed file - bad magic,
  /// version mismatch, truncation, checksum failure, trailing garbage, an
  /// entry count the payload cannot hold, an entry DesignPoint::decode
  /// rejects - throws PreconditionError and leaves the cache unchanged.
  /// Keys already resident stay resident (the live entry wins). No-op
  /// when cache_capacity is 0 (memoization disabled disables persistence
  /// too).
  std::size_t load_cache(const std::string& path);

 private:
  /// Cache key: the workload fingerprint plus the design point. The
  /// fingerprint is a content hash (collisions possible in principle) that
  /// already reflects the transformed layer specs; the point is compared
  /// exactly, so a collision across different configs, dataflows, batch
  /// sizes, or transforms can never alias.
  struct Key {
    std::uint64_t fingerprint = 0;
    core::DesignPoint point;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(
          util::Fnv1a64().pod(k.fingerprint).pod(k.point.hash()).digest());
    }
  };

  /// A client waiting on an entry that is still simulating. Delivery is
  /// either a promise (submit) or a callback (submit_streaming) - exactly
  /// one is armed.
  struct Waiter {
    std::promise<core::SweepOutcome> promise;
    CompletionCallback callback;  ///< when set, used instead of `promise`
    std::string name;  ///< the waiter's own job name
    bool hit = false;  ///< whether this waiter was accounted as a hit
  };

  struct Entry {
    bool ready = false;
    /// Valid once ready. Shared (immutable) so hit paths can copy the
    /// outcome for their client *outside* the service lock.
    std::shared_ptr<const core::SweepOutcome> outcome;
    std::vector<Waiter> waiters;      ///< pending clients while simulating
    std::list<Key>::iterator lru;     ///< position in lru_ (ready only)
  };

  /// One persisted (restart-surviving) result: the protocol-visible part
  /// of an outcome, without per-layer data.
  struct PersistedResult {
    bool ok = false;
    std::string error;
    core::RunSummary summary;
  };

  /// One entry of a cache file: the fingerprint, the point, the verdict,
  /// the error text, and the summary. The v4 record is positional.
  static void encode_entry(util::ByteWriter& w, const Key& key,
                           const PersistedResult& result);

  /// One admitted fresh simulation waiting in (or picked from) the fair
  /// queue. `use_cache` is false only on the cache_capacity == 0 path,
  /// where there is no Entry to complete - the runner delivers straight
  /// to `direct`.
  struct LaneJob {
    Key key;
    core::SweepJob job;
    bool use_cache = true;
    Waiter direct;  ///< armed iff !use_cache
    bool admission_counted = false;
  };

  /// Validates a submission's invariants: a network, and a point
  /// DesignPoint::validate accepts.
  static void validate_job(const core::SweepJob& job);

  /// Marks `key` complete, stores the outcome, applies LRU eviction, and
  /// fulfills every waiter. Runs on the pool at the end of each task.
  void complete(const Key& key, core::SweepOutcome outcome);

  /// Failure path of a pool task (e.g. out-of-memory while storing the
  /// outcome): drops the pending entry so a resubmission retries, and
  /// delivers the exception to every waiter instead of leaving their
  /// futures hanging (callback waiters receive an ok=false outcome).
  void abandon(const Key& key, std::exception_ptr error);

  /// Delivers a ready outcome to one waiter (promise or callback).
  static void deliver(Waiter& w, core::SweepOutcome outcome);

  /// Enqueues a fresh simulation into `session_id`'s lane and ensures
  /// enough runner tasks are active to drain it. Caller holds mutex_.
  /// On a pool-submit failure the job is re-extracted and the error
  /// rethrown, so the caller can unwind its accounting.
  void enqueue_lane(std::uint64_t session_id, LaneJob item,
                    std::unique_lock<std::mutex>& lock);

  /// Pops the next job round-robin across sessions with pending work.
  /// Caller holds mutex_. Returns false when every lane is empty.
  bool next_lane_job(LaneJob* out);

  /// Body of one runner task: drains lane jobs until none are pending.
  void runner_loop();

  Options options_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  ///< when worker_threads > 0
  util::ThreadPool* pool_;                        ///< never null

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  std::unordered_map<Key, Entry, KeyHash> cache_;
  std::list<Key> lru_;  ///< ready entries, most recently used first
  /// Entries loaded from a cache file: pinned (never evicted), summary
  /// only. A key is never in both maps - persisted keys hit before they
  /// could miss into `cache_`, and load_cache skips keys already live.
  std::unordered_map<Key, PersistedResult, KeyHash> persisted_;
  CacheStats stats_;

  // --- fair scheduling + admission (guarded by mutex_) --------------------
  std::atomic<std::uint64_t> next_session_id_{1};
  /// Pending fresh simulations, one FIFO lane per session id.
  std::unordered_map<std::uint64_t, std::deque<LaneJob>> lanes_;
  /// Rotation of session ids with a non-empty lane (round-robin order).
  std::deque<std::uint64_t> lane_order_;
  std::size_t waiting_ = 0;         ///< jobs in lanes (the queued gauge)
  std::size_t admitted_ = 0;        ///< admission-counted jobs in flight
  std::size_t active_runners_ = 0;  ///< runner tasks alive on the pool
};

}  // namespace edea::service
