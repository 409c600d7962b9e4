#include "service/session.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>

#include "nn/model_zoo.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::service {

namespace {

/// Synthetic input tensor for a workload - deterministic in the seed.
/// (Moved verbatim from the old stdin batch driver: request streams keep
/// resolving to bit-identical workloads across the refactor.)
nn::Int8Tensor random_input(const nn::DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed ^ 0xA5A5A5A5A5A5A5A5ull);
  nn::Int8Tensor input(nn::Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  return input;
}

/// Materializes the workload behind one catalog key. Runs outside the
/// catalog mutex; the layers build in parallel on the shared pool.
std::shared_ptr<const WorkloadCatalog::Workload> synthesize_workload(
    const std::string& network, std::uint64_t seed, int dilation,
    int depth_multiplier) {
  // zoo_specs throws PreconditionError for unknown names.
  std::vector<nn::DscLayerSpec> specs = nn::zoo_specs(network);
  for (nn::DscLayerSpec& spec : specs) {
    // Dilation scales the padding along with the taps, so the 'same'
    // geometry of the zoo layers (k=3, p=1) keeps its output extents.
    spec.dilation = dilation;
    spec.padding *= dilation;
    // Multiplicative: composes with multipliers the geometry already
    // carries (MobileNetV2 expansion factors).
    spec.depth_multiplier *= depth_multiplier;
  }
  auto workload = std::make_shared<WorkloadCatalog::Workload>();
  workload->layers = nn::make_random_quant_network(specs, seed);
  workload->input = random_input(specs.front(), seed);
  workload->fingerprint =
      core::network_fingerprint(workload->layers, workload->input);
  return workload;
}

/// The catalog key of a request's workload; rejects non-positive
/// transforms before anything is looked up.
std::tuple<std::string, std::uint64_t, int, int> catalog_key(
    const std::string& network, std::uint64_t seed, int dilation,
    int depth_multiplier) {
  core::DesignPoint{.dilation = dilation, .depth_multiplier = depth_multiplier}
      .validate("workload", network);
  return {network, seed, dilation, depth_multiplier};
}

/// What a workload keeps resident: weights, Non-Conv parameters (fixed
/// point plus the retained floats) and the input tensor.
std::size_t workload_bytes(const WorkloadCatalog::Workload& workload) {
  std::size_t bytes = workload.input.size();
  for (const nn::QuantDscLayer& layer : workload.layers) {
    bytes += layer.dwc_weights.size() + layer.pwc_weights.size();
    for (const nn::NonConvParams* p : {&layer.nonconv1, &layer.nonconv2}) {
      bytes += p->channel_count() * (sizeof(nn::NonConvChannelParams) +
                                     2 * sizeof(float));
    }
  }
  return bytes;
}

/// One reply slot. Ordered mode queues the slot at submit time (reserving
/// its place in id order) and the completion callback fills it; unordered
/// mode keeps the slot off the queue until its line is ready, so the queue
/// position *is* the completion order. Shared ownership: the reader, the
/// queue, and the service callback may each hold the slot.
struct Slot {
  std::uint64_t id = 0;
  bool ready = false;
  /// Pre-formed line (protocol errors, mode echoes, stats, busy). Unused
  /// when `has_outcome` is set.
  std::string text;
  /// Run completions park the outcome itself and let the writer thread
  /// render it: formatting a reply line costs a couple of microseconds
  /// of string building, and on the reader thread (where completion
  /// callbacks run for cache hits) it was a measurable slice of the
  /// per-request budget that bounds pipelined throughput. The writer has
  /// slack - it spends its time corking and sending.
  bool has_outcome = false;
  bool unordered = false;  ///< frame the rendered line with `id=<n> `
  core::SweepOutcome outcome;
};

/// Renders a drained slot into its wire line. Must run outside the
/// session mutex - see Slot::has_outcome.
std::string render_slot(Slot& slot) {
  if (!slot.has_outcome) return std::move(slot.text);
  std::string line = format_outcome_line(slot.outcome);
  if (slot.unordered) line = format_unordered_line(slot.id, line);
  return line;
}

}  // namespace

struct WorkloadCatalog::Entry {
  /// Null until synthesis finishes; then immutable. The catalog's copy is
  /// the only one while the workload is unpinned.
  std::shared_ptr<const Workload> workload;
  std::exception_ptr error;  ///< synthesis threw (entry already erased)
  bool done = false;         ///< synthesis finished, either way
  bool permanent = false;    ///< resolve()d: never evicted, not on lru_
  std::size_t bytes = 0;
  std::list<Entries::iterator>::iterator lru;  ///< valid while on lru_
};

WorkloadCatalog::WorkloadCatalog(SynthesisHook before_synthesis)
    : before_synthesis_(std::move(before_synthesis)) {}

std::shared_ptr<const WorkloadCatalog::Workload> WorkloadCatalog::acquire(
    const std::string& network, std::uint64_t seed, int dilation,
    int depth_multiplier) {
  return find_or_synthesize(
      catalog_key(network, seed, dilation, depth_multiplier),
      /*permanent=*/false);
}

const WorkloadCatalog::Workload& WorkloadCatalog::resolve(
    const std::string& network, std::uint64_t seed, int dilation,
    int depth_multiplier) {
  // The catalog keeps a permanent entry's workload alive on its own.
  return *find_or_synthesize(
      catalog_key(network, seed, dilation, depth_multiplier),
      /*permanent=*/true);
}

std::size_t WorkloadCatalog::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t WorkloadCatalog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const WorkloadCatalog::Workload>
WorkloadCatalog::find_or_synthesize(const Key& key, bool permanent) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto it = entries_.find(key); it != entries_.end();
       it = entries_.find(key)) {
    Entry* entry = it->second.get();
    if (!entry->done) {
      // Hold the entry across the wait: a failed synthesis erases it.
      const std::shared_ptr<Entry> in_flight = it->second;
      synthesized_.wait(lock, [&] { return in_flight->done; });
      if (in_flight->error) std::rethrow_exception(in_flight->error);
      continue;  // look again: it may have been evicted meanwhile
    }
    // A finished entry still in the map is materialized: failures and
    // evictions erase theirs.
    if (!entry->permanent) {
      if (permanent) {
        lru_.erase(entry->lru);
        entry->permanent = true;
      } else {
        lru_.splice(lru_.begin(), lru_, entry->lru);  // touch
      }
    }
    return entry->workload;
  }

  // First requester: insert the in-flight entry, synthesize outside the
  // mutex. Nothing but this thread erases an in-flight entry, so `it`
  // stays valid while the lock is released.
  const auto entry = std::make_shared<Entry>();
  const Entries::iterator it = entries_.emplace(key, entry).first;
  lock.unlock();
  const auto& [network, seed, dilation, depth_multiplier] = key;
  std::shared_ptr<const Workload> workload;
  try {
    if (before_synthesis_) before_synthesis_(network, seed);
    workload =
        synthesize_workload(network, seed, dilation, depth_multiplier);
  } catch (...) {
    lock.lock();
    entry->error = std::current_exception();
    entry->done = true;
    entries_.erase(it);
    synthesized_.notify_all();
    throw;
  }

  lock.lock();
  entry->workload = workload;
  entry->bytes = workload_bytes(*workload);
  entry->done = true;
  entry->permanent = permanent;
  if (!permanent) entry->lru = lru_.insert(lru_.begin(), it);
  resident_bytes_ += entry->bytes;
  evict_unpinned();
  synthesized_.notify_all();
  return workload;
}

void WorkloadCatalog::evict_unpinned() {
  // Walk from the least recently used end. use_count() == 1 under the
  // mutex means no pin exists, and none can appear: every pin is copied
  // from the entry under this mutex, or from another pin.
  auto pos = lru_.end();
  while (resident_bytes_ > kByteBudget && pos != lru_.begin()) {
    --pos;
    Entry& entry = *(*pos)->second;
    if (entry.workload.use_count() > 1) continue;  // pinned
    resident_bytes_ -= entry.bytes;
    entries_.erase(*pos);
    pos = lru_.erase(pos);
  }
}

Session::Session(SimulationService& service, WorkloadCatalog& catalog,
                 SessionOptions options)
    : service_(service), catalog_(catalog), options_(std::move(options)) {
  options_.defaults.validate("session defaults");
  EDEA_REQUIRE(options_.busy_retry_ms >= 1,
               "session busy_retry_ms must be >= 1, got " +
                   std::to_string(options_.busy_retry_ms));
}

SessionStats Session::serve(Stream& stream) {
  SessionStats stats;
  const std::uint64_t session_id = service_.new_session_id();

  // Reply slots. Ordered mode: slots are queued at submit time and filled
  // by completion callbacks, so the queue is in request-id order and the
  // writer stalls on the first pending slot. Unordered mode: slots are
  // queued ready by the callbacks themselves, so the queue is in
  // completion order. The writer corks every consecutively ready slot
  // into one write_lines call - frames drain in a handful of sends.
  std::mutex mutex;
  std::condition_variable queue_cv;  // writer waits for a ready head
  std::condition_variable done_cv;   // reader waits for outstanding == 0
  std::deque<std::shared_ptr<Slot>> queue;
  std::uint64_t outstanding = 0;  // submitted runs not yet completed
  bool finished = false;          // reader exhausted + drained
  bool stream_broken = false;

  /// Pushes an already-formed line (protocol errors, mode echoes, stats,
  /// busy, unresolved networks) as a ready slot.
  const auto push_text = [&](std::uint64_t id, std::string text) {
    auto slot = std::make_shared<Slot>();
    slot->id = id;
    slot->ready = true;
    slot->text = std::move(text);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(slot));
    }
    queue_cv.notify_one();
  };

  std::thread writer([&] {
    std::vector<std::shared_ptr<Slot>> drained;
    std::vector<std::string> batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        queue_cv.wait(lock, [&] {
          return (!queue.empty() && queue.front()->ready) ||
                 (finished && queue.empty());
        });
        if (queue.empty()) return;  // finished, everything written
        // Cork: take every consecutively ready reply in one drain. A
        // pending slot (ordered mode, simulation still running) ends the
        // batch - its successors must not overtake it. Slots are popped
        // here and rendered below, outside the lock: a ready slot has no
        // writer but this thread.
        while (!queue.empty() && queue.front()->ready) {
          drained.push_back(std::move(queue.front()));
          queue.pop_front();
        }
      }
      for (const std::shared_ptr<Slot>& slot : drained) {
        batch.push_back(render_slot(*slot));
      }
      drained.clear();
      // A broken peer must not wedge the session: completions keep
      // arriving (service bookkeeping finishes regardless), writing stops.
      bool broken;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        broken = stream_broken;
      }
      if (!broken) {
        if (stream.write_lines(batch)) {
          stats.responses_written += batch.size();
        } else {
          const std::lock_guard<std::mutex> lock(mutex);
          stream_broken = true;
        }
      }
      batch.clear();
    }
  });

  // Reply framing mode. Owned by the reader; completion callbacks capture
  // the value in effect when their request arrived, so a mid-stream switch
  // never reframes replies already in flight.
  bool unordered = false;
  // Frame state machine: outside any frame, or inside one with
  // `frame_seen` of `frame_expected` answering lines consumed.
  bool in_frame = false;
  int frame_expected = 0;
  int frame_seen = 0;

  std::string raw;
  while (stream.read_line(raw)) {
    ParsedLine parsed = parse_request_line(raw, options_.defaults);
    if (parsed.kind == ParsedLine::Kind::kEmpty) continue;

    // Frame bookkeeping happens before the line is answered: control
    // lines open/close the frame (well-formed ones answer nothing), every
    // other line inside a frame consumes one of its declared slots.
    if (in_frame) {
      if (parsed.kind == ParsedLine::Kind::kBatchEnd) {
        if (frame_seen < frame_expected) {
          parsed.kind = ParsedLine::Kind::kError;
          parsed.error = "batch-end after " + std::to_string(frame_seen) +
                         " of " + std::to_string(frame_expected) +
                         " frame lines";
        }
        in_frame = false;  // well-formed or not, the frame is over
        if (parsed.kind == ParsedLine::Kind::kBatchEnd) continue;
      } else if (frame_seen >= frame_expected) {
        // The declared count is exhausted; only batch-end may follow.
        parsed.kind = ParsedLine::Kind::kError;
        parsed.error = "expected batch-end after " +
                       std::to_string(frame_expected) +
                       " frame lines, got '" + raw + "'";
        in_frame = false;  // error recovery: drop the frame state
      } else {
        ++frame_seen;
        if (parsed.kind == ParsedLine::Kind::kBatchBegin) {
          parsed.kind = ParsedLine::Kind::kError;
          parsed.error = "nested batch-begin inside a frame";
        }
      }
    } else if (parsed.kind == ParsedLine::Kind::kBatchBegin) {
      in_frame = true;
      frame_expected = parsed.frame_size;
      frame_seen = 0;
      ++stats.frames;
      continue;  // well-formed frame control: no reply, no id
    } else if (parsed.kind == ParsedLine::Kind::kBatchEnd) {
      parsed.kind = ParsedLine::Kind::kError;
      parsed.error = "batch-end outside a frame";
    }

    const std::uint64_t id = ++stats.requests;

    switch (parsed.kind) {
      case ParsedLine::Kind::kError: {
        ++stats.protocol_errors;
        std::string line = "protocol-error " + parsed.error;
        if (unordered) line = format_unordered_line(id, line);
        push_text(id, std::move(line));
        break;
      }
      case ParsedLine::Kind::kMode: {
        // The reply states the mode now in effect, formatted in that
        // mode - a refused switch (server --ordered) answers a bare
        // `mode ordered`.
        unordered = parsed.unordered && options_.allow_unordered;
        std::string line = unordered ? "mode unordered" : "mode ordered";
        if (unordered) line = format_unordered_line(id, line);
        push_text(id, std::move(line));
        break;
      }
      case ParsedLine::Kind::kStats: {
        // Barrier: wait until every preceding submission has completed,
        // then snapshot. The FIFO queue keeps the line in wire order, so
        // the bytes match the historical written-through barrier exactly -
        // the reader just no longer stalls until the line is on the wire.
        {
          std::unique_lock<std::mutex> lock(mutex);
          done_cv.wait(lock, [&] { return outstanding == 0; });
        }
        std::string line = format_stats_line(service_.cache_stats());
        if (unordered) line = format_unordered_line(id, line);
        push_text(id, std::move(line));
        break;
      }
      case ParsedLine::Kind::kRun: {
        ++stats.runs;
        const Request& request = parsed.request;
        const bool framed_unordered = unordered;
        bool recorded = false;
        std::size_t record_index = 0;
        std::shared_ptr<Slot> slot;
        bool slot_queued = false;
        bool counted_outstanding = false;
        try {
          // The pin travels with the completion callback (and, when
          // recording, with the recorded job): the service reads
          // job.layers/job.input until the callback has run.
          std::shared_ptr<const WorkloadCatalog::Workload> workload =
              catalog_.acquire(request.network, request.seed,
                               request.dilation, request.depth_multiplier);
          core::SweepJob job;
          job.point() = request;
          job.name = request.job_name();
          job.layers = &workload->layers;
          job.input = &workload->input;
          job.fingerprint = workload->fingerprint;
          if (options_.record_traffic) {
            stats.jobs.push_back(job);
            stats.workloads.push_back(workload);
            record_index = stats.jobs.size() - 1;
            recorded = true;
            const std::lock_guard<std::mutex> lock(mutex);
            stats.outcomes.resize(stats.jobs.size());
          }

          slot = std::make_shared<Slot>();
          slot->id = id;
          {
            const std::lock_guard<std::mutex> lock(mutex);
            ++outstanding;
            counted_outstanding = true;
            if (!framed_unordered) {
              queue.push_back(slot);
              slot_queued = true;
            }
          }
          const bool record = recorded;
          auto callback = [&, slot, framed_unordered, record, record_index,
                           pin = std::move(workload)](
                              core::SweepOutcome outcome) {
            {
              const std::lock_guard<std::mutex> lock(mutex);
              // Park the outcome; the writer thread renders the line
              // (see Slot::has_outcome). Recording copies - only the
              // --verify gate pays for it.
              if (record) stats.outcomes[record_index] = outcome;
              slot->outcome = std::move(outcome);
              slot->has_outcome = true;
              slot->unordered = framed_unordered;
              slot->ready = true;
              if (framed_unordered) queue.push_back(slot);
              --outstanding;
              // Notify while still holding the mutex. This callback runs
              // on a pool runner thread; with the notify outside the
              // lock, the reader's drain wait can observe
              // outstanding == 0 (woken by an earlier completion), return
              // from serve(), and destroy these condition variables while
              // this thread is still inside notify - a use-after-free
              // that crashes in pthread_cond_broadcast. Holding the lock
              // orders the notify strictly before the drain's wake-up.
              queue_cv.notify_one();
              done_cv.notify_all();
            }
          };

          const Admission verdict = service_.submit_streaming(
              std::move(job), session_id, std::move(callback));
          if (verdict == Admission::kBusy) {
            // The slot answers busy instead; the callback will never run.
            ++stats.busy_replies;
            {
              const std::lock_guard<std::mutex> lock(mutex);
              --outstanding;
              slot->text = format_busy_line(id, options_.busy_retry_ms);
              slot->ready = true;
              if (framed_unordered) queue.push_back(slot);
              if (recorded) {
                // No outcome will ever exist - keep jobs/outcomes aligned
                // for the --verify replay.
                stats.jobs.pop_back();
                stats.workloads.pop_back();
                stats.outcomes.resize(stats.jobs.size());
                recorded = false;
              }
            }
            queue_cv.notify_one();
            done_cv.notify_all();
          }
        } catch (const std::exception& e) {
          // Unresolvable network (or a submit-side failure): answer an
          // error outcome line in this request's slot. Not recorded as
          // traffic - there is no job a verifier could replay.
          core::SweepOutcome unresolved;
          unresolved.point() = request;
          unresolved.name = request.job_name();
          unresolved.error = e.what();
          std::string line = format_outcome_line(unresolved);
          if (framed_unordered) line = format_unordered_line(id, line);
          {
            const std::lock_guard<std::mutex> lock(mutex);
            if (recorded) {
              stats.jobs.pop_back();
              stats.workloads.pop_back();
              stats.outcomes.resize(stats.jobs.size());
            }
            if (counted_outstanding) --outstanding;
            if (slot_queued) {
              // The ordered slot already holds this id's queue position
              // (submit_streaming threw after it was reserved) - fill it
              // rather than wedging the writer on a forever-pending head.
              slot->text = std::move(line);
              slot->ready = true;
            } else {
              auto error_slot = std::make_shared<Slot>();
              error_slot->id = id;
              error_slot->ready = true;
              error_slot->text = std::move(line);
              queue.push_back(std::move(error_slot));
            }
          }
          queue_cv.notify_one();
          done_cv.notify_all();
        }
        break;
      }
      case ParsedLine::Kind::kEmpty:
      case ParsedLine::Kind::kBatchBegin:
      case ParsedLine::Kind::kBatchEnd:
        break;  // unreachable; handled above
    }
  }

  // The stream ended on an over-long line: answer it in its slot like any
  // malformed line. Nothing after it was read, so the session ends here
  // and the transport closes the connection.
  if (stream.line_too_long()) {
    const std::uint64_t id = ++stats.requests;
    ++stats.protocol_errors;
    std::string line = "protocol-error line exceeds " +
                       std::to_string(kMaxLineBytes) + " bytes";
    if (unordered) line = format_unordered_line(id, line);
    push_text(id, std::move(line));
  }

  // EOF inside a frame: the peer broke its own framing promise - say so
  // in a final slot instead of silently swallowing the truncation.
  if (in_frame) {
    const std::uint64_t id = ++stats.requests;
    ++stats.protocol_errors;
    std::string line = "protocol-error batch frame truncated: got " +
                       std::to_string(frame_seen) + " of " +
                       std::to_string(frame_expected) +
                       " lines before EOF (missing batch-end)";
    if (unordered) line = format_unordered_line(id, line);
    push_text(id, std::move(line));
  }

  // Drain: every outstanding completion must land in the queue before the
  // writer is told the stream is finished (an unordered callback that
  // fires after `finished` would be lost).
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return outstanding == 0; });
    finished = true;
  }
  queue_cv.notify_all();
  writer.join();
  return stats;
}

}  // namespace edea::service
