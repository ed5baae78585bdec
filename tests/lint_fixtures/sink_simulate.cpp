// Fixture: rng-laundering on a sink-annotated entry point
// (tools/ast_audit.py).
//
// A simulate_* function receives the caller's CRN stream, so it must carve
// named substreams. Annotating it as a sink would silence the audit of its
// body; the rule rejects the annotation itself and audits the body anyway,
// so this file yields three findings: the annotation and the two direct
// draws.
// Never compiled.
#include "dist/distribution.hpp"
#include "util/rng.hpp"

// rng-audit: sink(draws its sizes inline)
double simulate_sink_entry(const stosched::dist::Distribution& size_law,
                           int n, stosched::Rng& rng) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += rng.uniform();         // BAD: direct draw on the caller's stream
    total += size_law.sample(rng);  // BAD: the distribution draws on it
  }
  return total;
}
