// The layer ladder: run_managed_leg timed with one layer added per rung.
#pragma once

#include <vector>

#include "perfbench.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

/// Rungs in stacking order. Each rung is the rung before it plus one layer,
/// except Histogram, which swaps the PPA for the histogram predictor and is
/// costed against Baseline like Ppa is.
enum class Rung {
  Baseline,       // run_baseline_leg: bare DES + fabric reservation
  Ppa,            // + PmpiAgent with the PPA predictor
  Histogram,      // histogram predictor instead of the PPA
  Trunk,          // Ppa + trunk idle-timeout sleep
  Contention,     // + per-hop contention
  HostCountdown,  // + host countdown policy
  Cap,            // + cluster power cap
  Timeline,       // + call-timeline recording
};

struct LadderSpec {
  /// Normalized config with every laddered layer off; its fabric (topology,
  /// routing) is the ladder's fixed substrate.
  ibpower::ExperimentConfig base;
  std::vector<Rung> rungs;  // must start with Baseline
  double cap_watts{0.0};    // the Cap rung's cluster budget
};

/// Times every rung in interleaved rounds (each round rotates the starting
/// rung) until `budget_s` is spent, at least three rounds after one warm-up
/// round, and writes each layer's cost as the difference of its fastest
/// round from the rung below's, in nanoseconds per baseline DES event:
///   core.ppa_ns_per_event, core.histogram_ns_per_event,
///   power.trunk_ns_per_event, network.contention_ns_per_event,
///   host.countdown_ns_per_event, host.cap_ns_per_event,
///   obs.timeline_ns_per_event
/// Rungs not in the spec leave their metric unset.
void run_ladder(const LadderSpec& spec, const ibpower::Trace& trace,
                Tracer& tracer, double budget_s, Metrics& out);

}  // namespace perfbench
