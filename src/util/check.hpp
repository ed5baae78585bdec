// check.hpp — the always-on check of libstosched.
//
// STOSCHED_REQUIRE is on in every build type and throws
// std::invalid_argument. It guards everything a caller or a model can get
// wrong (bad arguments, inconsistent model definitions, a policy returning
// an out-of-range choice, a singular system, a diverging integrator), so
// tests exercise it with EXPECT_THROW and Release binaries still refuse a
// bad input instead of simulating garbage.
//
// Structural invariants on the per-event path (heap and ring emptiness,
// nonnegative populations) use the contract family of util/contract.hpp
// instead: it is compiled out in Release and aborts where it is armed.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace stosched::detail {

[[noreturn]] inline void throw_require(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "requirement failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

}  // namespace stosched::detail

/// Validate a precondition or a model-level condition; always enabled.
#define STOSCHED_REQUIRE(cond, msg)                                       \
  do {                                                                    \
    if (!(cond))                                                          \
      ::stosched::detail::throw_require(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)
