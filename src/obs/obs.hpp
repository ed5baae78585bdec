// obs.hpp — umbrella for the observability subsystem.
//
// One include gives a consumer the whole telemetry surface: the metrics
// registry (counters and deterministic latency histograms) and run
// provenance. A run explains itself end to end through the BENCH_*.json
// these are stamped into, and layer by layer through perfbench's
// calibrated `--trace 1` run; the library itself reads no clock.
#pragma once

#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
