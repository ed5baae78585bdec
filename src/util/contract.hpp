// contract.hpp — compiled-out contracts for the hot paths.
//
// Three macro families, complementing util/check.hpp:
//
//   STOSCHED_EXPECTS(cond, msg)    precondition at a function entry
//   STOSCHED_ENSURES(cond, msg)    postcondition before a return
//   STOSCHED_INVARIANT(cond, msg)  structural invariant inside an algorithm
//
// The library has exactly two checking mechanisms:
//
//   * STOSCHED_REQUIRE (util/check.hpp) is always on and throws
//     std::invalid_argument. Every check that a caller or a model can
//     trigger uses it, and tests exercise it with EXPECT_THROW.
//   * This contract family is compiled out in Release and aborts. It is
//     for checks too hot to pay for in Release: per-event invariants (an
//     empty future-event set or FIFO popped, a negative population),
//     ring-buffer index algebra, pop monotonicity of the event heap. The
//     condition is type-checked but NOT evaluated unless
//     STOSCHED_CONTRACTS is defined, which the build system turns on for
//     Debug builds and every STOSCHED_SANITIZE build (so ASan/UBSan/TSan
//     CI legs run with contracts armed, where a violation's abort()
//     produces a symbolized sanitizer-grade report).
//
// The static rule `entry-contract` (tools/ast_audit.py) requires every
// public simulator entry point to open with one of the two.
//
// A failed contract is an internal bug, never a recoverable condition, so
// the handler prints and abort()s rather than throwing: stack intact for
// sanitizers and core dumps, and no unwinding through noexcept hot paths.
//
// Ghost state: some contracts need bookkeeping that must not exist in
// Release builds (e.g. the last-popped key of an event queue). Declare it
// with STOSCHED_CONTRACT_STATE(declaration;) and mutate it inside
// STOSCHED_CONTRACT_CODE(...) — both expand to nothing when contracts are
// off, so a contract whose condition reads ghost state goes inside
// STOSCHED_CONTRACT_CODE too. All TUs of one build share one
// STOSCHED_CONTRACTS setting (it is a global compile definition), so
// contract-only members never cause layout mismatches across translation
// units.
#pragma once

namespace stosched::detail {

/// Print `kind: (expr) at file:line — msg` to stderr and abort(). Always
/// compiled (the self-test exercises it in every build type); only the
/// macros below are conditional.
[[noreturn]] void contract_violation(const char* kind, const char* expr,
                                     const char* file, int line,
                                     const char* msg) noexcept;

}  // namespace stosched::detail

#ifdef STOSCHED_CONTRACTS

#define STOSCHED_CONTRACTS_ACTIVE 1

#define STOSCHED_CONTRACT_CHECK_(kind, cond, msg)                         \
  do {                                                                    \
    if (!(cond))                                                          \
      ::stosched::detail::contract_violation(kind, #cond, __FILE__,       \
                                             __LINE__, (msg));            \
  } while (0)

#define STOSCHED_EXPECTS(cond, msg) \
  STOSCHED_CONTRACT_CHECK_("precondition", cond, msg)
#define STOSCHED_ENSURES(cond, msg) \
  STOSCHED_CONTRACT_CHECK_("postcondition", cond, msg)
#define STOSCHED_INVARIANT(cond, msg) \
  STOSCHED_CONTRACT_CHECK_("invariant", cond, msg)

/// Declare contract-only ("ghost") state, e.g. a class member tracking the
/// last value an accessor returned. Pass a complete declaration including
/// the trailing semicolon.
#define STOSCHED_CONTRACT_STATE(...) __VA_ARGS__

/// Execute contract-only statements (updates to ghost state).
#define STOSCHED_CONTRACT_CODE(...) \
  do {                              \
    __VA_ARGS__                     \
  } while (0)

#else  // !STOSCHED_CONTRACTS — no Release code, but conditions still compile.

#define STOSCHED_CONTRACTS_ACTIVE 0
// sizeof's operand is unevaluated: the condition is type-checked (and the
// names it reads count as used) but never runs. A condition that reads
// ghost state must therefore sit inside STOSCHED_CONTRACT_CODE.
#define STOSCHED_EXPECTS(cond, msg) ((void)sizeof(!!(cond)))
#define STOSCHED_ENSURES(cond, msg) ((void)sizeof(!!(cond)))
#define STOSCHED_INVARIANT(cond, msg) ((void)sizeof(!!(cond)))
#define STOSCHED_CONTRACT_STATE(...)
#define STOSCHED_CONTRACT_CODE(...) ((void)0)

#endif  // STOSCHED_CONTRACTS
