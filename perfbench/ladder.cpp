#include "ladder.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/replay_memory.hpp"

namespace perfbench {

namespace {

using ibpower::ExperimentConfig;

/// The rung's full config: the stack of layers up to and including it.
ExperimentConfig rung_config(const LadderSpec& spec, Rung rung) {
  ExperimentConfig cfg = spec.base;
  const int level = static_cast<int>(rung);
  if (rung == Rung::Histogram) {
    cfg.ppa.predictor.kind = ibpower::PredictorKind::Histogram;
    return cfg;
  }
  if (level >= static_cast<int>(Rung::Trunk)) {
    cfg.fabric.trunk.kind = ibpower::TrunkPolicyKind::Timeout;
  }
  if (level >= static_cast<int>(Rung::Contention)) cfg.fabric.contention = true;
  if (level >= static_cast<int>(Rung::HostCountdown)) {
    cfg.host.policy = ibpower::HostPolicyKind::Countdown;
  }
  if (level >= static_cast<int>(Rung::Cap)) {
    cfg.host.power_cap_watts = spec.cap_watts;
  }
  if (level >= static_cast<int>(Rung::Timeline)) cfg.record_call_timeline = true;
  return cfg;
}

/// The rung a layer's cost is measured against.
Rung below(Rung rung) {
  if (rung == Rung::Histogram || rung == Rung::Ppa) return Rung::Baseline;
  if (rung == Rung::Trunk) return Rung::Ppa;
  return static_cast<Rung>(static_cast<int>(rung) - 1);
}

const char* metric_name(Rung rung) {
  switch (rung) {
    case Rung::Baseline: return nullptr;
    case Rung::Ppa: return "core.ppa_ns_per_event";
    case Rung::Histogram: return "core.histogram_ns_per_event";
    case Rung::Trunk: return "power.trunk_ns_per_event";
    case Rung::Contention: return "network.contention_ns_per_event";
    case Rung::HostCountdown: return "host.countdown_ns_per_event";
    case Rung::Cap: return "host.cap_ns_per_event";
    case Rung::Timeline: return "obs.timeline_ns_per_event";
  }
  return nullptr;
}

}  // namespace

void run_ladder(const LadderSpec& spec, const ibpower::Trace& trace,
                Tracer& tracer, double budget_s, Metrics& out) {
  if (spec.rungs.empty() || spec.rungs.front() != Rung::Baseline) {
    throw std::logic_error("ladder must start with the Baseline rung");
  }
  const std::size_t n = spec.rungs.size();
  std::vector<ExperimentConfig> cfgs;
  for (const Rung r : spec.rungs) cfgs.push_back(rung_config(spec, r));
  // One warm workspace for every rung: the ladder measures steady-state
  // replay cost, not first-touch allocation.
  ibpower::ReplayMemory memory;
  std::vector<std::vector<double>> ms(n);
  std::uint64_t baseline_events = 0;

  auto run_rung = [&](std::size_t i) {
    const auto t0 = Clock::now();
    if (spec.rungs[i] == Rung::Baseline) {
      const auto span = tracer.span("ladder.baseline");
      baseline_events =
          ibpower::run_baseline_leg(cfgs[i], trace, {}, &memory).events;
    } else {
      const auto span = tracer.span("ladder.managed");
      (void)ibpower::run_managed_leg(cfgs[i], trace, {}, &memory);
    }
    return ms_since(t0);
  };

  for (std::size_t i = 0; i < n; ++i) (void)run_rung(i);  // warm-up round
  const auto start = Clock::now();
  int rounds = 0;
  while (rounds < 3 || seconds_since(start) < budget_s) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(rounds)) % n;
      ms[i].push_back(run_rung(i));
    }
    ++rounds;
  }

  // Fastest round per rung: the one least disturbed by the host's slow
  // phases, which last longer than a round.
  std::vector<double> best(n);
  for (std::size_t i = 0; i < n; ++i) {
    best[i] = *std::min_element(ms[i].begin(), ms[i].end());
  }
  auto best_of = [&](Rung r) {
    for (std::size_t i = 0; i < n; ++i) {
      if (spec.rungs[i] == r) return best[i];
    }
    throw std::logic_error("ladder rung missing its lower rung");
  };
  const double events = static_cast<double>(baseline_events);
  for (std::size_t i = 0; i < n; ++i) {
    const char* name = metric_name(spec.rungs[i]);
    if (name == nullptr) continue;
    out[name] = (best[i] - best_of(below(spec.rungs[i]))) * 1e6 / events;
  }
}

}  // namespace perfbench
