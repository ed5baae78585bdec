// Fixture: rng-laundering (tools/ast_audit.py).
//
// The entry point forwards its Rng& whole, as it should. But the helper it
// forwards TO draws directly on the caller's stream — laundering the draw
// through one call level. The rule follows every function with an Rng&
// parameter and flags the helper; tools/test_ast_audit.py asserts exactly
// one finding, on the helper.
#include "util/rng.hpp"

namespace fixture {

double jitter_helper(stosched::Rng& rng) {
  return rng.uniform(0.0, 1.0);  // BAD: direct draw on a routed stream
}

double simulate_fixture(stosched::Rng& rng) {
  return jitter_helper(rng);  // whole-argument forwarding: regex-clean
}

}  // namespace fixture
