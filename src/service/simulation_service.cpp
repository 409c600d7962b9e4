#include "service/simulation_service.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace edea::service {

namespace {

/// Cache file framing: magic + version up front, FNV-1a digest of every
/// preceding byte at the end. The magic doubles as an endianness probe -
/// it is written through ByteWriter::pod like everything else, so a file
/// from a foreign-endian host fails the magic check before anything is
/// decoded.
// Encoded so the *file bytes* (little-endian pod write) spell "EDEACAS\0":
// 'E'=0x45 'D'=0x44 'E'=0x45 'A'=0x41 'C'=0x43 'A'=0x41 'S'=0x53 0x00.
constexpr std::uint64_t kCacheMagic = 0x0053414341454445ull;
// Version 2: entries gained the backend id (the cache key became
// (fingerprint, config, backend)). Version 3: entries gained the batch
// size (the key became (fingerprint, config, backend, batch)) and
// RunSummary gained peak_arena_bytes. Version 4: entries gained the
// workload-transform knobs (the key became (fingerprint, config,
// backend, batch, dilation, depth_multiplier)). Older files are
// rejected, not migrated: a v1 file cannot say which dataflow produced
// its summaries, a v2 file can neither say which batch nor decode into
// the wider summary, and a v3 file cannot say which workload transform
// its fingerprints were computed over.
constexpr std::uint32_t kCacheVersion = 4;

/// A cache-served outcome at summary level: everything the wire protocol
/// reports (verdict, error text, summary, point echo) and none of the
/// per-layer result payload. Streaming hits deliver this instead of a
/// deep copy of the cached outcome - the full result drags hundreds of
/// kilobytes of activation tensors per request through the allocator,
/// and it dominated the cache-hit serving path that pipelined sessions
/// are bounded by.
core::SweepOutcome summary_hit(const core::DesignPoint& point,
                               std::string name, bool ok, std::string error,
                               const core::RunSummary& summary) {
  core::SweepOutcome out;
  out.point() = point;
  out.name = std::move(name);
  out.ok = ok;
  out.error = std::move(error);
  out.summary = summary;
  out.cache_hit = true;
  out.summary_only = true;
  return out;
}

core::SweepOutcome summary_view(const core::SweepOutcome& full,
                                std::string name) {
  return summary_hit(full, std::move(name), full.ok, full.error,
                     full.summary);
}

/// The ok=false outcome a callback waiter hears when its simulation could
/// not be launched, run, or delivered: the wire has no exception channel,
/// only error lines.
core::SweepOutcome failed_outcome(const core::DesignPoint& point,
                                  std::string name, std::string error) {
  core::SweepOutcome out;
  out.point() = point;
  out.name = std::move(name);
  out.error = std::move(error);
  return out;
}

/// The text of an exception_ptr, for failed_outcome.
std::string error_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown simulation failure";
  }
}

}  // namespace

SimulationService::SimulationService(Options options)
    : options_(options),
      owned_pool_(options.worker_threads > 0
                      ? std::make_unique<util::ThreadPool>(
                            options.worker_threads)
                      : nullptr),
      pool_(owned_pool_ ? owned_pool_.get() : &util::ThreadPool::shared()) {
  EDEA_REQUIRE(options_.tile_parallelism >= 1,
               "service tile_parallelism must be >= 1 (1 = serial tiles)");
}

SimulationService::~SimulationService() { wait_idle(); }

void SimulationService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Runners count too: a runner that just completed the last job still
  // touches service state on its way out, and the destructor must not
  // pull that state out from under it.
  idle_cv_.wait(lock,
                [this] { return in_flight_ == 0 && active_runners_ == 0; });
}

CacheStats SimulationService::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats snapshot = stats_;
  snapshot.entries = cache_.size() + persisted_.size();
  snapshot.in_flight = static_cast<std::uint64_t>(in_flight_);
  snapshot.queued = static_cast<std::uint64_t>(waiting_);
  snapshot.max_queue = static_cast<std::uint64_t>(options_.max_queue);
  return snapshot;
}

std::uint64_t SimulationService::new_session_id() {
  return next_session_id_.fetch_add(1, std::memory_order_relaxed);
}

void SimulationService::validate_job(const core::SweepJob& job) {
  EDEA_REQUIRE(job.layers != nullptr && job.input != nullptr,
               "service request '" + job.name + "' must reference a network");
  // Up front: an invalid point must fail the submitter here, not surface
  // later as a broken future from the pool.
  job.validate("service request", job.name);
}

void SimulationService::deliver(Waiter& w, core::SweepOutcome outcome) {
  if (w.callback) {
    w.callback(std::move(outcome));
    return;
  }
  w.promise.set_value(std::move(outcome));
}

void SimulationService::enqueue_lane(std::uint64_t session_id, LaneJob item,
                                     std::unique_lock<std::mutex>& lock) {
  EDEA_ASSERT(lock.owns_lock(), "enqueue_lane needs the service lock");
  std::deque<LaneJob>& lane = lanes_[session_id];
  const bool was_empty = lane.empty();
  lane.push_back(std::move(item));
  ++waiting_;
  if (was_empty) lane_order_.push_back(session_id);

  // Runners are plain pool tasks; more than the pool's width could never
  // run concurrently, and a runner exits the moment every lane is dry, so
  // over-spawning costs one no-op task at most.
  if (active_runners_ >= pool_->size()) return;
  ++active_runners_;
  try {
    auto task = pool_->submit([this] { runner_loop(); });
    (void)task;  // runners report through complete()/deliver()
  } catch (...) {
    --active_runners_;
    if (active_runners_ > 0) return;  // a live runner will drain the lane
    // No runner will ever pick the job up: undo the push and let the
    // caller unwind its accounting.
    lane.pop_back();
    --waiting_;
    if (was_empty) {
      lane_order_.pop_back();
      lanes_.erase(session_id);
    }
    throw;
  }
}

bool SimulationService::next_lane_job(LaneJob* out) {
  // Round-robin across sessions: take the front session's oldest job,
  // then rotate the session to the back if it still has work. One bulk
  // session with a deep lane advances one job per turn, so interactive
  // sessions interleave instead of queueing behind it.
  while (!lane_order_.empty()) {
    const std::uint64_t sid = lane_order_.front();
    lane_order_.pop_front();
    auto it = lanes_.find(sid);
    if (it == lanes_.end() || it->second.empty()) continue;
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      lanes_.erase(it);
    } else {
      lane_order_.push_back(sid);
    }
    return true;
  }
  return false;
}

void SimulationService::runner_loop() {
  for (;;) {
    LaneJob item;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!next_lane_job(&item)) {
        --active_runners_;
        if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
        return;
      }
      --waiting_;
    }

    if (item.use_cache) {
      // Any escape here (evaluate_job never throws simulation failures,
      // but allocation can fail) must still resolve the waiters and the
      // in-flight count - a dropped exception would hang clients.
      try {
        complete(item.key,
                 core::evaluate_job(item.job, options_.tile_parallelism));
      } catch (...) {
        abandon(item.key, std::current_exception());
      }
    } else {
      // cache_capacity == 0: no entry to complete - deliver directly.
      try {
        deliver(item.direct,
                core::evaluate_job(item.job, options_.tile_parallelism));
      } catch (...) {
        if (item.direct.callback) {
          try {
            item.direct.callback(failed_outcome(
                item.key.point, item.job.name,
                error_text(std::current_exception())));
          } catch (...) {
            // Callbacks must not throw; nothing more can be done here.
          }
        } else {
          item.direct.promise.set_exception(std::current_exception());
        }
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
    }

    if (item.admission_counted) {
      const std::lock_guard<std::mutex> lock(mutex_);
      --admitted_;
    }
  }
}

std::future<core::SweepOutcome> SimulationService::submit(core::SweepJob job) {
  validate_job(job);

  // The fingerprint walks the whole workload - reuse the one the caller
  // precomputed (WorkloadCatalog materialization); hash only when absent,
  // and outside the lock.
  const Key key{job.fingerprint != 0
                    ? job.fingerprint
                    : core::network_fingerprint(*job.layers, *job.input),
                job};

  std::promise<core::SweepOutcome> promise;
  std::future<core::SweepOutcome> future = promise.get_future();

  if (options_.cache_capacity == 0) {
    // Memoization disabled: every submission simulates independently.
    LaneJob item;
    item.key = key;
    item.job = std::move(job);
    item.use_cache = false;
    item.direct.promise = std::move(promise);
    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.misses;
    ++in_flight_;
    try {
      enqueue_lane(0, std::move(item), lock);
    } catch (...) {
      // The job will never run, so the in-flight count must be unwound
      // here or wait_idle() deadlocks.
      --in_flight_;
      if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
      throw;
    }
    return future;
  }

  bool launch = false;
  bool persisted_hit = false;
  PersistedResult persisted;
  std::shared_ptr<const core::SweepOutcome> cached;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.hits;
      Entry& entry = it->second;
      if (!entry.ready) {
        // Coalesce onto the in-flight simulation.
        Waiter waiter;
        waiter.promise = std::move(promise);
        waiter.name = job.name;
        waiter.hit = true;
        entry.waiters.push_back(std::move(waiter));
        return future;
      }
      lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
      cached = entry.outcome;  // the deep copy happens outside the lock
    } else if (auto pit = persisted_.find(key); pit != persisted_.end()) {
      // Served from the restart-surviving summary cache: no simulation,
      // accounted as a hit, materialized outside the lock.
      ++stats_.hits;
      persisted_hit = true;
      persisted = pit->second;
    } else {
      ++stats_.misses;
      ++in_flight_;
      Entry entry;
      Waiter waiter;
      waiter.promise = std::move(promise);
      waiter.name = job.name;
      waiter.hit = false;
      entry.waiters.push_back(std::move(waiter));
      cache_.emplace(key, std::move(entry));
      launch = true;
    }
  }

  if (persisted_hit) {
    promise.set_value(summary_hit(key.point, std::move(job.name),
                                  persisted.ok, std::move(persisted.error),
                                  persisted.summary));
    return future;
  }

  if (cached) {
    core::SweepOutcome out = *cached;
    out.name = std::move(job.name);
    out.cache_hit = true;
    promise.set_value(std::move(out));
    return future;
  }

  if (launch) {
    LaneJob item;
    item.key = key;
    item.job = std::move(job);
    item.use_cache = true;
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      enqueue_lane(0, std::move(item), lock);
    } catch (...) {
      // Enqueueing failed: no runner will ever complete this entry. Drop
      // it and deliver the failure to anyone who already coalesced onto
      // it, then surface the error to this caller too.
      lock.unlock();
      abandon(key, std::current_exception());
      throw;
    }
  }
  return future;
}

Admission SimulationService::submit_streaming(core::SweepJob job,
                                              std::uint64_t session_id,
                                              CompletionCallback done) {
  EDEA_REQUIRE(done != nullptr,
               "submit_streaming for '" + job.name +
                   "' needs a completion callback");
  validate_job(job);

  // The fingerprint walks the whole workload - reuse the one the caller
  // precomputed (WorkloadCatalog materialization); hash only when absent,
  // and outside the lock.
  const Key key{job.fingerprint != 0
                    ? job.fingerprint
                    : core::network_fingerprint(*job.layers, *job.input),
                job};
  const bool bounded = options_.max_queue > 0;

  if (options_.cache_capacity == 0) {
    // Memoization disabled: every submission is a fresh simulation, so
    // every submission is subject to admission.
    const std::string name = job.name;
    LaneJob item;
    item.key = key;
    item.job = std::move(job);
    item.use_cache = false;
    item.direct.callback = done;  // a copy survives an enqueue failure
    item.admission_counted = bounded;
    std::unique_lock<std::mutex> lock(mutex_);
    if (bounded && admitted_ >= options_.max_queue) {
      ++stats_.rejected;
      return Admission::kBusy;
    }
    ++stats_.misses;
    ++in_flight_;
    if (bounded) {
      ++admitted_;
      stats_.peak_queue = std::max<std::uint64_t>(
          stats_.peak_queue, static_cast<std::uint64_t>(admitted_));
    }
    try {
      enqueue_lane(session_id, std::move(item), lock);
    } catch (...) {
      // Launch failure after admission: unwind the accounting and honor
      // the exactly-once contract with an ok=false outcome - once
      // kAdmitted is decided, the callback always hears back, and a
      // throw from here on would risk a second delivery.
      --in_flight_;
      if (bounded) --admitted_;
      if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
      lock.unlock();
      try {
        done(failed_outcome(key.point, name, "simulation launch failed"));
      } catch (...) {
        // Callbacks are documented non-throwing.
      }
    }
    return Admission::kAdmitted;
  }

  bool persisted_hit = false;
  PersistedResult persisted;
  std::shared_ptr<const core::SweepOutcome> cached;
  std::string hit_name;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.hits;
      Entry& entry = it->second;
      if (!entry.ready) {
        // Coalescing starts no new work - always admitted, even at the
        // bound: rejecting it would punish exactly the duplicate the
        // cache exists to absorb.
        Waiter waiter;
        waiter.callback = std::move(done);
        waiter.name = job.name;
        waiter.hit = true;
        entry.waiters.push_back(std::move(waiter));
        return Admission::kAdmitted;
      }
      lru_.splice(lru_.begin(), lru_, entry.lru);  // touch
      cached = entry.outcome;
      hit_name = job.name;
    } else if (auto pit = persisted_.find(key); pit != persisted_.end()) {
      ++stats_.hits;
      persisted_hit = true;
      persisted = pit->second;
      hit_name = job.name;
    } else {
      if (bounded && admitted_ >= options_.max_queue) {
        ++stats_.rejected;
        return Admission::kBusy;
      }
      ++stats_.misses;
      ++in_flight_;
      if (bounded) {
        ++admitted_;
        stats_.peak_queue = std::max<std::uint64_t>(
            stats_.peak_queue, static_cast<std::uint64_t>(admitted_));
      }
      Entry entry;
      Waiter waiter;
      waiter.callback = std::move(done);
      waiter.name = job.name;
      waiter.hit = false;
      entry.waiters.push_back(std::move(waiter));
      cache_.emplace(key, std::move(entry));
      LaneJob item;
      item.key = key;
      item.job = std::move(job);
      item.use_cache = true;
      item.admission_counted = bounded;
      try {
        enqueue_lane(session_id, std::move(item), lock);
      } catch (...) {
        // Launch failure after admission: abandon() drops the pending
        // entry and delivers an ok=false outcome to every waiter -
        // including the callback registered above, which satisfies the
        // exactly-once contract, so the failure is not rethrown.
        if (bounded) --admitted_;
        lock.unlock();
        abandon(key, std::current_exception());
      }
      return Admission::kAdmitted;
    }
  }

  if (persisted_hit) {
    done(summary_hit(key.point, std::move(hit_name), persisted.ok,
                     std::move(persisted.error), persisted.summary));
    return Admission::kAdmitted;
  }

  // Warm hit: deliver the summary level only. The streaming consumer (a
  // session formatting a reply line) reads nothing below the summary, so
  // copying the cached per-layer result here would be pure overhead - and
  // a measured 6 us of it per request, the bulk of the hit path.
  done(summary_view(*cached, std::move(hit_name)));
  return Admission::kAdmitted;
}

void SimulationService::complete(const Key& key, core::SweepOutcome outcome) {
  // Allocations come before any state mutation: if one throws, the entry
  // is still cleanly pending and the caller's abandon() path takes over
  // without losing waiters.
  const auto stored =
      std::make_shared<const core::SweepOutcome>(std::move(outcome));
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    EDEA_ASSERT(it != cache_.end() && !it->second.ready,
                "service completed a request with no pending cache entry");
    Entry& entry = it->second;
    lru_.push_front(key);  // the only throwing op under the lock
    entry.lru = lru_.begin();
    entry.outcome = stored;
    entry.ready = true;
    waiters = std::move(entry.waiters);
    entry.waiters.clear();
    // Evict least-recently-used completed results beyond capacity.
    // In-flight entries are never in lru_, so they are pinned, and the
    // just-inserted front entry survives (capacity here is >= 1).
    while (lru_.size() > options_.cache_capacity) {
      const Key victim = lru_.back();
      lru_.pop_back();
      cache_.erase(victim);
      ++stats_.evictions;
    }
    --in_flight_;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  // Fulfill outside the lock: delivery may run waiter continuations
  // (future::get in another thread, a session callback) that immediately
  // resubmit. A copy failure for one waiter must not strand the others.
  for (Waiter& w : waiters) {
    try {
      // Streaming duplicates that coalesced onto this simulation are
      // hits and hear the summary level, like every other streaming hit.
      // Promise waiters (legacy submit) and the miss that launched the
      // simulation get the full result - in-process callers do read
      // per-layer data, and a miss pays a whole simulation anyway.
      if (w.callback && w.hit) {
        deliver(w, summary_view(*stored, std::move(w.name)));
        continue;
      }
      core::SweepOutcome out = *stored;
      out.name = std::move(w.name);
      out.cache_hit = w.hit;
      deliver(w, std::move(out));
    } catch (...) {
      if (w.callback) {
        // A callback waiter must still hear *something* or its reply slot
        // hangs forever; a summary-free error outcome is the best effort.
        try {
          w.callback(failed_outcome(key.point, std::move(w.name),
                                    "result delivery failed"));
        } catch (...) {
          // Out of options - callbacks are documented non-throwing.
        }
      } else {
        w.promise.set_exception(std::current_exception());
      }
    }
  }
}

void SimulationService::abandon(const Key& key, std::exception_ptr error) {
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end() && !it->second.ready) {
      waiters = std::move(it->second.waiters);
      cache_.erase(it);  // pending entries are never in lru_
    }
    --in_flight_;
    if (in_flight_ == 0 && active_runners_ == 0) idle_cv_.notify_all();
  }
  const std::string message = error_text(error);
  for (Waiter& w : waiters) {
    if (w.callback) {
      try {
        w.callback(failed_outcome(key.point, std::move(w.name), message));
      } catch (...) {
        // Callbacks are documented non-throwing.
      }
    } else {
      w.promise.set_exception(error);
    }
  }
}

std::size_t SimulationService::save_cache(const std::string& path) const {
  // Snapshot under the lock: previously loaded persisted entries plus
  // every *ready* live entry (in-flight entries have no result yet). The
  // two maps never share a key, so the merge is a plain concatenation.
  std::vector<std::pair<Key, PersistedResult>> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(persisted_.size() + cache_.size());
    for (const auto& [key, result] : persisted_) {
      entries.emplace_back(key, result);
    }
    for (const auto& [key, entry] : cache_) {
      if (!entry.ready) continue;
      PersistedResult r;
      r.ok = entry.outcome->ok;
      r.error = entry.outcome->error;
      r.summary = entry.outcome->summary;
      entries.emplace_back(key, std::move(r));
    }
  }
  // Deterministic file bytes: unordered_map iteration order must not leak
  // into the artifact (same cache state -> same file, diffable).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.first.fingerprint != b.first.fingerprint) {
                return a.first.fingerprint < b.first.fingerprint;
              }
              return a.first.point.sorts_before(b.first.point);
            });

  util::ByteWriter w;
  w.pod(kCacheMagic);
  w.pod(kCacheVersion);
  w.pod(static_cast<std::uint64_t>(entries.size()));
  for (const auto& [key, result] : entries) encode_entry(w, key, result);
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();

  // Write-then-rename: a crash mid-write must leave the previous cache
  // file intact, never a checksum-invalid torso that blocks the next
  // start. rename(2) on the same filesystem is atomic.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out.good()) {
      out.write(w.buffer().data(),
                static_cast<std::streamsize>(w.buffer().size()));
      out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
      out.flush();
    }
    if (!out.good()) {
      throw ResourceError("cannot write cache file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ResourceError("cannot move cache file into place at '" + path +
                        "'");
  }
  return entries.size();
}

std::size_t SimulationService::load_cache(const std::string& path) {
  if (options_.cache_capacity == 0) return 0;  // memoization disabled

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return 0;  // a first start has no cache file
  std::ostringstream content;
  content << in.rdbuf();
  const std::string bytes = content.str();

  EDEA_REQUIRE(bytes.size() >= sizeof(kCacheMagic) + sizeof(kCacheVersion) +
                                   sizeof(std::uint64_t) * 2,
               "cache file '" + path + "' is truncated");
  const std::size_t payload_size = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_digest = 0;
  std::memcpy(&stored_digest, bytes.data() + payload_size,
              sizeof(stored_digest));
  const std::uint64_t digest =
      util::Fnv1a64().bytes(bytes.data(), payload_size).digest();
  EDEA_REQUIRE(digest == stored_digest,
               "cache file '" + path + "' failed its checksum (corrupted)");

  util::ByteReader r(std::string_view(bytes).substr(0, payload_size));
  EDEA_REQUIRE(r.pod<std::uint64_t>() == kCacheMagic,
               "cache file '" + path + "' has the wrong magic");
  const auto version = r.pod<std::uint32_t>();
  EDEA_REQUIRE(version == kCacheVersion,
               "cache file '" + path + "' has unsupported version " +
                   std::to_string(version));
  const auto count = r.pod<std::uint64_t>();
  // FNV is not a MAC: a crafted header can claim any count under a valid
  // digest. Bound it by what the payload can hold before reserving.
  util::ByteWriter smallest;
  encode_entry(smallest, Key{}, PersistedResult{});
  EDEA_REQUIRE(count <= r.remaining() / smallest.buffer().size(),
               "cache file '" + path + "' claims " + std::to_string(count) +
                   " entries, more than its payload can hold");

  // Decode fully before touching service state, so a malformed tail can
  // never leave a half-loaded cache behind.
  std::vector<std::pair<Key, PersistedResult>> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Key key;
    key.fingerprint = r.pod<std::uint64_t>();
    key.point = core::DesignPoint::decode(r, "cache file", path);
    PersistedResult result;
    result.ok = r.pod<std::uint8_t>() != 0;
    result.error = r.str();
    result.summary = core::RunSummary::decode(r);
    entries.emplace_back(std::move(key), std::move(result));
  }
  EDEA_REQUIRE(r.exhausted(),
               "cache file '" + path + "' has trailing garbage");

  std::size_t loaded = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, result] : entries) {
      if (cache_.find(key) != cache_.end()) continue;  // live entry wins
      persisted_.insert_or_assign(key, std::move(result));
      ++loaded;
    }
  }
  return loaded;
}

void SimulationService::encode_entry(util::ByteWriter& w, const Key& key,
                                     const PersistedResult& result) {
  w.pod(key.fingerprint);
  key.point.encode(w);
  w.pod(static_cast<std::uint8_t>(result.ok ? 1 : 0));
  w.str(result.error);
  result.summary.encode(w);
}

std::vector<std::future<core::SweepOutcome>> SimulationService::submit_batch(
    std::vector<core::SweepJob> jobs) {
  std::vector<std::future<core::SweepOutcome>> futures;
  futures.reserve(jobs.size());
  for (core::SweepJob& job : jobs) {
    futures.push_back(submit(std::move(job)));
  }
  return futures;
}

std::vector<core::SweepOutcome> SimulationService::serve(
    std::vector<core::SweepJob> jobs) {
  std::vector<std::future<core::SweepOutcome>> futures =
      submit_batch(std::move(jobs));
  std::vector<core::SweepOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (std::future<core::SweepOutcome>& f : futures) {
    outcomes.push_back(f.get());
  }
  return outcomes;
}

}  // namespace edea::service
