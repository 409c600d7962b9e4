// check.hpp - error-handling primitives for the EDEA library.
//
// Follows the C++ Core Guidelines (E.*): exceptions for violated
// preconditions on public APIs, assert-like checks that cannot be disabled
// for invariants whose violation would silently corrupt simulation results.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace edea {

/// Exception thrown when a precondition of a public EDEA API is violated.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when an internal invariant of the simulator is violated.
/// Seeing this exception always indicates a bug in the library itself.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Exception thrown when a modeled hardware resource is exceeded
/// (e.g. writing past an SRAM buffer's capacity or overflowing the 24-bit
/// accumulator range the silicon provides).
class ResourceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

// The messages name the failed expression, not its source location: they
// reach reply lines, which must not depend on where the tree was built.
// Cold and out of line, so the checks in hot loops cost only a branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(
    std::string_view expr, std::string_view msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ')';
  if (!msg.empty()) os << " - " << msg;
  throw PreconditionError(os.str());
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_invariant(
    std::string_view expr, std::string_view msg) {
  std::ostringstream os;
  os << "invariant violated: (" << expr << ')';
  if (!msg.empty()) os << " - " << msg;
  throw InvariantError(os.str());
}

}  // namespace detail

}  // namespace edea

/// Validates a precondition of a public API. Throws edea::PreconditionError.
#define EDEA_REQUIRE(expr, msg)                          \
  do {                                                   \
    if (!(expr)) {                                       \
      ::edea::detail::throw_precondition(#expr, (msg));  \
    }                                                    \
  } while (false)

/// Validates an internal invariant. Throws edea::InvariantError.
/// Never compiled out: a wrong simulation result is worse than a slow one.
#define EDEA_ASSERT(expr, msg)                        \
  do {                                                \
    if (!(expr)) {                                    \
      ::edea::detail::throw_invariant(#expr, (msg));  \
    }                                                 \
  } while (false)
