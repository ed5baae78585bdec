// Fixture: rng-laundering (tools/ast_audit.py).
//
// The entry point forwards its Rng& whole, as it should. But the helpers it
// forwards TO draw directly on the caller's stream — laundering the draw
// through one call level, once by calling an Rng member and once by handing
// the stream to a distribution's sample(). The rule follows every function
// with an Rng& parameter and flags each helper; tools/test_ast_audit.py
// asserts exactly one finding per helper and none on the entry point.
#include "dist/distribution.hpp"
#include "util/rng.hpp"

namespace fixture {

double jitter_helper(stosched::Rng& rng) {
  return rng.uniform(0.0, 1.0);  // BAD: direct draw on a routed stream
}

double size_helper(const stosched::dist::Distribution& size_law,
                   stosched::Rng& rng) {
  return size_law.sample(rng);  // BAD: the distribution draws on it
}

double simulate_fixture(const stosched::dist::Distribution& size_law,
                        stosched::Rng& rng) {
  // whole-argument forwarding: clean
  return jitter_helper(rng) + size_helper(size_law, rng);
}

}  // namespace fixture
