#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

std::string clock_text(int hundredths) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d.%02d", hundredths / 100,
                hundredths % 100);
  return buf;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

constexpr std::array<const char*, 2> kBackends{"edea", "serialized"};

class DseRevisit final : public Workload {
 public:
  static constexpr int kBlock = 20;  // requests per block
  static constexpr int kFresh = 3;   // fresh design points per block
  static constexpr std::size_t kLag = 4;  // newest points not revisited
  static constexpr std::size_t kReach = 100;  // oldest revisitable point
  // kReach keeps every revisitable point within the last 2 * kReach
  // distinct keys, so the server's 256-entry LRU never evicts one: misses
  // equal distinct keys exactly.

  explicit DseRevisit(std::uint64_t seed)
      : rng_(seed ^ 0xD5E0D5E0ull), zipf_(kReach, 1.0) {
    for (const int td : {8, 16, 32}) {
      for (const int tk : {16, 32, 64}) {
        for (int clock = 50; clock < 250; ++clock) {
          for (const char* backend : kBackends) {
            grid_.push_back(" td=" + std::to_string(td) +
                            " tk=" + std::to_string(tk) +
                            " clock_ghz=" + clock_text(clock) +
                            " backend=" + backend);
          }
        }
      }
    }
    shuffle(grid_, rng_);
  }

  int window() const override { return 4; }
  std::uint64_t rss_probe_after() const override { return 1000; }

  std::vector<std::string> setup_lines() const override {
    // Off-grid clock: materializes the catalog entry and runs one full
    // simulation without touching a stream key.
    return {prefix() + " clock_ghz=3.00"};
  }

  std::uint32_t next(int, std::string* line) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (slot_ == 0) {
      block_.assign(kBlock, 0);
      for (int i = 0; i < kFresh; ++i) block_[i] = 1;
      shuffle(block_, rng_);
    }
    const bool fresh = block_[slot_] != 0 || table_.empty();
    slot_ = (slot_ + 1) % kBlock;
    std::uint32_t index;
    if (fresh) {
      if (fresh_ == grid_.size()) throw std::runtime_error("grid exhausted");
      std::string text = prefix() + grid_[fresh_];
      // Every 16th fresh point is infeasible: the 3x3 networks cannot map
      // onto a 5x5 datapath, and the error outcome is cached like any
      // other result.
      if (fresh_ % 16 == 7) text += " kernel=5";
      ++fresh_;
      table_.push_back(std::move(text));
      index = static_cast<std::uint32_t>(table_.size() - 1);
    } else {
      const std::size_t n = table_.size();
      const std::size_t hi = n > kLag ? n - kLag : n;
      const std::size_t span = std::min(hi, kReach);
      std::size_t rank = zipf_.draw(rng_);
      while (rank >= span) rank = zipf_.draw(rng_);
      index = static_cast<std::uint32_t>(hi - 1 - rank);
    }
    *line = table_[index];
    return index;
  }

  std::string line(std::uint32_t index) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.at(index);
  }

 private:
  // One fixed network, as in the paper's exploration: the seed moves the
  // grid order and the revisits, not the weights.
  static std::string prefix() { return "run mobilenet-cifar seed=1"; }

  mutable std::mutex mutex_;
  Rng rng_;
  Zipf zipf_;
  std::vector<std::string> grid_;
  std::size_t fresh_ = 0;
  std::vector<char> block_;
  int slot_ = 0;
  std::deque<std::string> table_;
};

class ZooFresh final : public Workload {
 public:
  explicit ZooFresh(std::uint64_t seed)
      : rng_(seed ^ 0x200F4E54ull), base_(1000 + (seed % 100000) * 100000) {}

  int window() const override { return 4; }
  std::uint64_t rss_probe_after() const override { return 200; }

  std::vector<std::string> setup_lines() const override {
    // Warm-up: one request per network, on seed 1, which the stream's
    // seeds (>= 1000) never reuse.
    std::vector<std::string> lines;
    for (const char* network : {"mobilenet-cifar", "mobilenet-v2",
                                "efficientnet-b0", "edeanet-64",
                                "mobilenet-0.25x"}) {
      lines.push_back(std::string("run ") + network + " seed=1");
    }
    return lines;
  }

  std::uint32_t next(int, std::string* line) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (deck_.empty()) {
      for (std::size_t backend = 0; backend < kBackends.size(); ++backend) {
        for (std::size_t cell = 0; cell < kCells.size(); ++cell) {
          deck_.insert(deck_.end(), kCells[cell].count, {cell, backend});
        }
      }
      shuffle(deck_, rng_);
    }
    const auto [cell, backend] = deck_.back();
    deck_.pop_back();
    table_.push_back(std::string("run ") + kCells[cell].network +
                     " seed=" + std::to_string(base_ + table_.size()) +
                     " backend=" + kBackends[backend] + kCells[cell].transform);
    *line = table_.back();
    return static_cast<std::uint32_t>(table_.size() - 1);
  }

  std::string line(std::uint32_t index) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return table_.at(index);
  }

 private:
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t base_;
  // One deck per 96 requests: each cell's count on both backends,
  // shuffled, so the mix is the same for every seed and only its order
  // moves. The transforms take the generic kernel paths.
  struct Cell {
    const char* network;
    const char* transform;
    int count;
  };
  static constexpr std::array<Cell, 11> kCells{{
      {"mobilenet-cifar", "", 1},
      {"mobilenet-v2", "", 1},
      {"efficientnet-b0", "", 1},
      {"edeanet-64", "", 17},
      {"edeanet-64", " dilation=2", 1},
      {"edeanet-64", " depth_multiplier=2", 1},
      {"edeanet-64", " batch=2", 1},
      {"mobilenet-0.25x", "", 22},
      {"mobilenet-0.25x", " dilation=2", 1},
      {"mobilenet-0.25x", " depth_multiplier=2", 1},
      {"mobilenet-0.25x", " batch=2", 1},
  }};
  std::vector<std::pair<std::size_t, std::size_t>> deck_;  // (cell, backend)
  std::deque<std::string> table_;
};

class ZipfHits final : public Workload {
 public:
  explicit ZipfHits(std::uint64_t seed)
      : rngs_{Rng(seed * 31 + 1), Rng(seed * 31 + 2)}, zipf_(144, 1.1) {
    const auto add = [&](const std::string& network, std::uint64_t s) {
      for (const int td : {8, 16}) {
        for (const int tk : {16, 32}) {
          for (const char* clock : {"0.80", "1.00"}) {
            for (const char* backend : kBackends) {
              table_.push_back("run " + network + " seed=" +
                               std::to_string(s) + " td=" +
                               std::to_string(td) + " tk=" +
                               std::to_string(tk) + " clock_ghz=" + clock +
                               " backend=" + backend);
            }
          }
        }
      }
    };
    // Fixed networks: the seed moves the popularity order and the draws.
    for (std::uint64_t s = 1; s <= 8; ++s) add("mobilenet-0.25x", s);
    add("edeanet-64", 1);
    for (std::uint32_t i = 0; i < table_.size(); ++i) popularity_.push_back(i);
    Rng rng(seed ^ 0x21BF4175ull);
    shuffle(popularity_, rng);
  }

  int window() const override { return 64; }
  int refill() const override { return 16; }
  std::uint64_t rss_probe_after() const override { return 1'000'000; }

  std::vector<std::string> setup_lines() const override { return table_; }
  bool stream_only_hits() const override { return true; }

  std::uint32_t next(int conn, std::string* line) override {
    const std::uint32_t index = popularity_[zipf_.draw(rngs_[conn])];
    *line = table_[index];
    return index;
  }

  std::string line(std::uint32_t index) const override {
    return table_.at(index);
  }

 private:
  std::array<Rng, 2> rngs_;  // one per connection: no lock on the hot path
  Zipf zipf_;
  std::vector<std::string> table_;
  std::vector<std::uint32_t> popularity_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "dse-revisit") return std::make_unique<DseRevisit>(seed);
  if (name == "zoo-fresh") return std::make_unique<ZooFresh>(seed);
  if (name == "zipf-hits") return std::make_unique<ZipfHits>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
