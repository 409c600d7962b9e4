// sram.hpp - on-chip SRAM buffer model.
//
// The accelerator (Fig. 4) instantiates five of these: DWC ifmap buffer,
// DWC weight buffer, offline (Non-Conv parameter) buffer, intermediate
// buffer, and PWC weight buffer. The model provides byte-addressed storage
// with a hard capacity limit (writing past capacity is a ResourceError: the
// tiler exists precisely because layers do not fit) and read/write counters.
//
// Storage comes in two modes: owning (the buffer allocates its own bytes)
// and span (the buffer models capacity/counters over externally planned
// bytes - an nn::Arena slice - so a worker's whole scratch set is one
// contiguous allocation). Behaviour is identical in both modes; a span
// buffer simply does not own its lifetime, which the provider (the
// accelerator's scratch arena) must outlive.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "util/check.hpp"

namespace edea::arch {

class SramBuffer {
 public:
  /// Owning mode: allocates (zeroed) storage of `capacity_bytes`.
  SramBuffer(std::string name, std::int64_t capacity_bytes)
      : name_(std::move(name)),
        storage_(check_capacity(capacity_bytes)),
        capacity_(capacity_bytes) {}

  /// Span mode: models the buffer over `capacity_bytes` of externally
  /// owned storage at `backing` (must be non-null and outlive the buffer).
  SramBuffer(std::string name, std::uint8_t* backing,
             std::int64_t capacity_bytes)
      : name_(std::move(name)), external_(backing), capacity_(capacity_bytes) {
    (void)check_capacity(capacity_bytes);
    EDEA_REQUIRE(backing != nullptr,
                 "span-mode SRAM '" + name_ + "' needs backing storage");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool owns_storage() const noexcept {
    return external_ == nullptr;
  }

  /// Writes `size` bytes at `addr`. Counts one write access per call (the
  /// silicon writes a word or burst per port transaction, not per byte).
  void write(std::int64_t addr, const void* src, std::int64_t size) {
    bounds_check<std::uint8_t>(addr, size, "write");
    std::memcpy(bytes() + addr, src, static_cast<std::size_t>(size));
    counter_.record_write(size);
  }

  /// Reads `size` bytes at `addr` into dst. Counts one read access.
  void read(std::int64_t addr, void* dst, std::int64_t size) {
    bounds_check<std::uint8_t>(addr, size, "read");
    std::memcpy(dst, bytes() + addr, static_cast<std::size_t>(size));
    counter_.record_read(size);
  }

  /// Writes `count` consecutive T elements starting at element `index`:
  /// one bounds check and one copy for the whole run (a Td-wide vector
  /// moved in one port transaction). Counts `count` element writes of
  /// sizeof(T) bytes - exactly what `count` single-element writes record,
  /// so the run granularity never shows in the counters.
  template <typename T>
  void write_run(std::int64_t index, const T* src, std::int64_t count) {
    bounds_check<T>(index, count, "write");
    if (count == 0) return;  // src may be null (an empty vector's data())
    const std::int64_t size = count * std::int64_t{sizeof(T)};
    std::memcpy(bytes() + index * std::int64_t{sizeof(T)}, src,
                static_cast<std::size_t>(size));
    counter_.record_write(size, count);
  }

  /// Reads `count` consecutive T elements starting at element `index`
  /// into dst; the read-side twin of write_run (same counting contract).
  template <typename T>
  void read_run(std::int64_t index, T* dst, std::int64_t count) {
    bounds_check<T>(index, count, "read");
    if (count == 0) return;
    const std::int64_t size = count * std::int64_t{sizeof(T)};
    std::memcpy(dst, bytes() + index * std::int64_t{sizeof(T)},
                static_cast<std::size_t>(size));
    counter_.record_read(size, count);
  }

  [[nodiscard]] const AccessCounter& counter() const noexcept {
    return counter_;
  }
  void reset_counters() noexcept { counter_.reset(); }

  /// Zeroes the contents without touching the counters (power-on state).
  void clear_contents() {
    std::uint8_t* p = bytes();
    std::memset(p, 0, static_cast<std::size_t>(capacity_));
  }

 private:
  static std::size_t check_capacity(std::int64_t capacity_bytes) {
    EDEA_REQUIRE(capacity_bytes > 0, "SRAM capacity must be positive");
    return static_cast<std::size_t>(capacity_bytes);
  }

  [[nodiscard]] std::uint8_t* bytes() noexcept {
    return external_ != nullptr ? external_ : storage_.data();
  }

  /// Throws unless elements [index, index + count) of width sizeof(T)
  /// lie inside the buffer. Compared in element units against the
  /// remaining room, so no intermediate sum or product can overflow.
  template <typename T>
  void bounds_check(std::int64_t index, std::int64_t count,
                    const char* op) const {
    constexpr std::int64_t kWidth = sizeof(T);
    const std::int64_t slots = capacity_ / kWidth;
    if (index < 0 || count < 0 || count > slots - index) [[unlikely]] {
      out_of_range(op, index, count, kWidth);
    }
  }

  [[noreturn]] void out_of_range(const char* op, std::int64_t index,
                                 std::int64_t count,
                                 std::int64_t width) const {
    throw ResourceError("SRAM '" + name_ + "': out-of-range " + op + " of " +
                        std::to_string(count) + " x " + std::to_string(width) +
                        "-byte elements at element " + std::to_string(index) +
                        " (capacity " + std::to_string(capacity_) + " bytes)");
  }

  std::string name_;
  std::vector<std::uint8_t> storage_;         ///< owning mode only
  std::uint8_t* external_ = nullptr;          ///< span mode only
  std::int64_t capacity_ = 0;
  AccessCounter counter_;
};

}  // namespace edea::arch
