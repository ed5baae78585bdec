// obs.hpp — umbrella for the observability subsystem.
//
// One include gives a consumer the whole telemetry surface: the metrics
// registry (counters and deterministic latency histograms), the
// compiled-out Chrome-trace macros and the library's clock, run
// provenance, and the structured progress sink.
#pragma once

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
