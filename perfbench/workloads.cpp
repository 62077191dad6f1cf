// The four benchmark workloads (README.md, "Workloads").
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bench_common.hpp"
#include "check/invariant_auditor.hpp"
#include "ladder.hpp"
#include "obs/collect.hpp"
#include "obs/exporters.hpp"
#include "obs/sched_export.hpp"
#include "perfbench.hpp"
#include "sim/campaign.hpp"
#include "sim/parallel.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace {

using namespace ibpower;

/// Fig. 9 (displacement 1 %) switch savings reported by the paper, in
/// bench::paper_grid() order (EXPERIMENTS.md, "Figure 9").
constexpr double kFig9Paper[25] = {
    36.0, 33.1, 30.6, 25.7, 17.0,  // GROMACS 8..128
    14.5, 12.6, 8.9,  5.2,  2.3,   // ALYA 8..128
    38.1, 31.0, 22.0, 11.4, 4.1,   // WRF 8..128
    51.3, 46.1, 33.3, 20.4, 5.5,   // NAS BT 9..100
    27.7, 29.0, 19.3, 12.3, 3.7,   // NAS MG 8..128
};

/// Savings over the ports the managed leg gates: the node uplinks, plus
/// the trunks when a trunk sleep policy runs (the paper's per-switch
/// metric; ExperimentResult::fabric_power is the whole-switch number then).
double gated_savings(const ExperimentConfig& cfg, const ExperimentResult& r) {
  return cfg.fabric.trunk.kind == TrunkPolicyKind::Off
             ? r.power.switch_savings_pct
             : r.fabric_power.switch_savings_pct;
}

/// Folds the cells of one operation into its SimOutcome (means over cells)
/// and its deterministic counters and per-op layer counts (sums).
class CellFold {
 public:
  void add(const ExperimentConfig& cfg, const ExperimentResult& r,
           const double* paper_savings = nullptr) {
    ++cells_;
    sum_.switch_savings_pct += gated_savings(cfg, r);
    sum_.uplink_savings_pct += r.power.switch_savings_pct;
    sum_.fabric_savings_pct += r.fabric_power.switch_savings_pct;
    sum_.time_increase_pct += r.time_increase_pct;
    hit_rate_sum_ += r.hit_rate_pct;
    if (cfg.host.enabled()) {
      ++host_cells_;
      sum_.system_savings_pct += r.system_savings_pct;
    }
    if (paper_savings != nullptr) {
      ++paper_cells_;
      sum_.fig9_mae_pts += std::fabs(r.power.switch_savings_pct - *paper_savings);
    }
    counters_.events += r.sim_events;
    counters_.messages += r.messages;
    counters_.mpi_calls += r.mpi_calls;
    counters_.pattern_mispredicts += r.agents.pattern_mispredicts;
    counters_.pstate_changes += r.hosts.pstate_changes;
    counters_.on_demand_wakes += r.on_demand_wakes;
  }

  /// Writes the means, counters and layer counts into `op`.
  void finish(OpOutcome& op) const {
    const double n = cells_ > 0 ? static_cast<double>(cells_) : 1.0;
    op.sim.switch_savings_pct = sum_.switch_savings_pct / n;
    op.sim.uplink_savings_pct = sum_.uplink_savings_pct / n;
    op.sim.fabric_savings_pct = sum_.fabric_savings_pct / n;
    op.sim.time_increase_pct = sum_.time_increase_pct / n;
    if (host_cells_ > 0) {
      op.sim.system_savings_pct = sum_.system_savings_pct / host_cells_;
    }
    if (paper_cells_ > 0) op.sim.fig9_mae_pts = sum_.fig9_mae_pts / paper_cells_;
    op.counters = counters_;
    op.layer["sim.events"] = static_cast<double>(counters_.events);
    op.layer["sim.messages"] = static_cast<double>(counters_.messages);
    op.layer["sim.mpi_calls"] = static_cast<double>(counters_.mpi_calls);
    op.layer["core.hit_rate_pct"] = hit_rate_sum_ / n;
    op.layer["core.pattern_mispredicts"] =
        static_cast<double>(counters_.pattern_mispredicts);
    op.layer["network.on_demand_wakes"] =
        static_cast<double>(counters_.on_demand_wakes);
    op.layer["host.pstate_changes"] =
        static_cast<double>(counters_.pstate_changes);
    op.layer["model.uplink_savings_pct"] = op.sim.uplink_savings_pct;
    op.layer["model.system_savings_pct"] = op.sim.system_savings_pct;
    op.layer["model.fig9_mae_pts"] = op.sim.fig9_mae_pts;
  }

 private:
  int cells_{0};
  int host_cells_{0};
  int paper_cells_{0};
  SimOutcome sum_;
  double hit_rate_sum_{0.0};
  DeterministicCounters counters_;
};

/// Scheduler numbers of the runner's last run_all()/session.
void add_sched_layers(const ParallelExperimentRunner& runner, double wall_ms,
                      double work_ms, OpOutcome& op) {
  const SchedProfile prof = runner.last_sched_profile();
  const obs::SchedSummary sum = obs::summarize_sched(
      prof, static_cast<std::int64_t>(wall_ms * 1e6));
  op.layer["sched.work_ms"] = work_ms;
  op.layer["sched.speedup"] = wall_ms > 0.0 ? work_ms / wall_ms : 0.0;
  op.layer["sched.utilization"] = sum.utilization;
  op.layer["sched.steals"] = static_cast<double>(sum.steals);
}

/// Table IV method (bench_table4_overheads) over recorded baseline call
/// timelines: one prediction-only agent per rank driven through every
/// call. The amortized pass times each rank's whole loop (agent cost per
/// call without clock overhead); the per-call pass times every call, as the
/// paper did, to split out the calls on which the full PPA scan ran.
struct AgentTiming {
  std::uint64_t calls{0};
  std::uint64_t scan_calls{0};
  double loop_ns{0.0};
  double scan_ns{0.0};

  void add(const std::vector<std::vector<MpiCallEvent>>& timelines,
           const PpaConfig& ppa) {
    for (const auto& timeline : timelines) {
      PmpiAgent agent(ppa, nullptr);
      const auto t0 = Clock::now();
      for (const MpiCallEvent& ev : timeline) {
        (void)agent.on_call_enter(ev.call, ev.enter);
        agent.on_call_exit(ev.call, ev.exit);
      }
      agent.finish();
      loop_ns += 1e6 * ms_since(t0);
      calls += timeline.size();
    }
    for (const auto& timeline : timelines) {
      PmpiAgent agent(ppa, nullptr);
      std::uint64_t scans_before = 0;
      for (const MpiCallEvent& ev : timeline) {
        const auto t0 = Clock::now();
        (void)agent.on_call_enter(ev.call, ev.enter);
        agent.on_call_exit(ev.call, ev.exit);
        const double ns = 1e6 * ms_since(t0);
        const std::uint64_t scans = agent.detector().invocations();
        if (scans != scans_before) {
          ++scan_calls;
          scan_ns += ns;
          scans_before = scans;
        }
      }
      agent.finish();
    }
  }

  void write(Metrics& out) const {
    const double n = calls > 0 ? static_cast<double>(calls) : 1.0;
    out["core.agent_ns_per_call"] = loop_ns / n;
    out["core.scan_frac"] = static_cast<double>(scan_calls) / n;
    out["core.ns_per_scan"] =
        scan_calls > 0 ? scan_ns / static_cast<double>(scan_calls) : 0.0;
  }
};

/// Generator throughput: times generate_experiment_trace (the workloads
/// layer) over `cfgs`, returning the traces.
std::vector<Trace> timed_generate(const std::vector<ExperimentConfig>& cfgs,
                                  Tracer& tracer, Metrics& out) {
  std::vector<Trace> traces;
  double ns = 0.0;
  std::size_t records = 0;
  for (const ExperimentConfig& cfg : cfgs) {
    const auto span = tracer.span("workloads.generate");
    const auto t0 = Clock::now();
    traces.push_back(generate_experiment_trace(cfg));
    ns += 1e6 * ms_since(t0);
    records += traces.back().total_records();
  }
  out["workloads.gen_ns_per_record"] =
      records > 0 ? ns / static_cast<double>(records) : 0.0;
  return traces;
}

/// Sum of the managed legs' trunk on-demand wakes over `cfgs` (probe-only
/// counter: ExperimentResult reports node-uplink wakes alone).
double trunk_wakes(const std::vector<ExperimentConfig>& cfgs,
                   const std::vector<const Trace*>& traces) {
  std::uint64_t wakes = 0;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (cfgs[i].fabric.trunk.kind == TrunkPolicyKind::Off) continue;
    (void)run_managed_leg(
        cfgs[i], *traces[i], [&](const ReplayEngine& engine, const ReplayResult&) {
          const Fabric& fabric = engine.fabric();
          for (LinkId l = 0; l < fabric.topology().num_links(); ++l) {
            if (!fabric.topology().is_node_link(l)) {
              wakes += fabric.link(l).on_demand_wakes();
            }
          }
        });
  }
  return static_cast<double>(wakes);
}

std::string xgft_spec(const XgftParams& x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d,%d,%d,%d,%d,%d", x.m1, x.m2, x.w1, x.w2,
                x.m3, x.w3);
  return buf;
}

/// One resolved experiment config as a JSON object.
std::string cfg_json(const ExperimentConfig& c) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"app\": \"%s\", \"nranks\": %d, \"iterations\": %d, \"seed\": %llu, "
      "\"gt_us\": %.3f, \"disp\": %.4f, \"predictor\": \"%s\", "
      "\"guard_us\": %.3f, \"xgft\": \"%s\", \"routing\": \"%s\", "
      "\"trunk_policy\": \"%s\", \"contention\": %s, \"host_policy\": \"%s\", "
      "\"power_cap_w\": %.3f, \"record_call_timeline\": %s}",
      c.app.c_str(), c.workload.nranks, c.workload.iterations,
      static_cast<unsigned long long>(c.workload.seed),
      c.ppa.grouping_threshold.us(), c.ppa.displacement_factor,
      predictor_name(c.ppa.predictor.kind),
      c.ppa.predictor.guard_threshold.us(), xgft_spec(c.fabric.xgft).c_str(),
      routing_strategy_name(c.fabric.routing.strategy),
      trunk_policy_name(c.fabric.trunk.kind),
      c.fabric.contention ? "true" : "false", host_policy_name(c.host.policy),
      c.host.power_cap_watts, c.record_call_timeline ? "true" : "false");
  return buf;
}

std::string configs_json(const std::vector<ExperimentConfig>& cfgs) {
  std::string out = "[";
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + cfg_json(cfgs[i]);
  }
  return out + "]";
}

/// The ladder's substrate: `cfg` with every laddered layer off.
LadderSpec ladder_for(const ExperimentConfig& cfg, std::vector<Rung> rungs) {
  LadderSpec spec;
  spec.base = normalize_config(cfg);
  spec.base.ppa.predictor = PredictorConfig{};
  spec.base.fabric.trunk.kind = TrunkPolicyKind::Off;
  spec.base.fabric.contention = false;
  spec.base.host = HostPowerConfig{};
  spec.base.record_call_timeline = false;
  spec.rungs = std::move(rungs);
  // The bench's "+host" rule: a mildly binding cap at 97 % of flat-out.
  spec.cap_watts = spec.base.host.pstates[0].watts * cfg.workload.nranks * 0.97;
  return spec;
}

const std::vector<Rung> kFullLadder = {
    Rung::Baseline,   Rung::Ppa,           Rung::Histogram, Rung::Trunk,
    Rung::Contention, Rung::HostCountdown, Rung::Cap,       Rung::Timeline};

// --- paper_grid --------------------------------------------------------------

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(const WorkloadOptions& opt) : opt_(opt) {}

  void setup() override {
    for (const bench::GridCell& cell : bench::paper_grid()) {
      ExperimentConfig cfg = bench::cell_config(cell, 0.01, 100);
      cfg.workload.seed = opt_.seed;
      cfgs_.push_back(cfg);
    }
    runner_ = std::make_unique<ParallelExperimentRunner>(opt_.workers);
    for (const ExperimentConfig& cfg : cfgs_) {
      reference_.push_back(run_experiment(cfg));
    }
  }

  OpOutcome run_op(Tracer& tracer) override {
    OpOutcome op;
    const auto t0 = Clock::now();
    std::vector<ExperimentResult> results;
    {
      const auto span = tracer.span("sched.run_all");
      results = runner_->run_all(cfgs_);
    }
    const double wall_ms = ms_since(t0);
    CellFold fold;
    for (std::size_t i = 0; i < cfgs_.size(); ++i) {
      if (!bit_identical(results[i], reference_[i])) {
        op.fail("paper_grid cell " + cfgs_[i].app + "/" +
                std::to_string(cfgs_[i].workload.nranks) +
                " differs from its serial run_experiment reference");
      }
      fold.add(cfgs_[i], results[i], &kFig9Paper[i]);
    }
    fold.finish(op);
    const auto sum = [](const std::vector<double>& v) {
      return std::accumulate(v.begin(), v.end(), 0.0);
    };
    op.layer["workloads.gen_ms"] = runner_->last_total_gen_ms();
    op.layer["sim.baseline_ms"] = sum(runner_->last_cell_base_ms());
    op.layer["sim.managed_ms"] = sum(runner_->last_cell_managed_ms());
    add_sched_layers(*runner_, wall_ms, runner_->last_total_work_ms(), op);
    return op;
  }

  void corrupt_reference() override {
    reference_.front().sim_events += 1;
  }

  void layer_pass(Tracer& tracer, double budget_s, Metrics& out) override {
    (void)budget_s;
    std::vector<ExperimentConfig> normalized;
    for (const ExperimentConfig& cfg : cfgs_) {
      normalized.push_back(normalize_config(cfg));
    }
    const std::vector<Trace> traces = timed_generate(normalized, tracer, out);
    AgentTiming timing;
    std::uint64_t baseline_events = 0;
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      baseline_events += run_baseline_leg(normalized[i], traces[i]).events;
      timing.add(baseline_call_timelines(normalized[i], traces[i]),
                 normalized[i].ppa);
    }
    timing.write(out);
    out["sim.baseline_events"] = static_cast<double>(baseline_events);
  }

  [[nodiscard]] unsigned threads() const override { return opt_.workers; }

  [[nodiscard]] std::string config_json() const override {
    return "{\"cells\": " + configs_json(cfgs_) +
           ", \"workers\": " + std::to_string(runner_ ? runner_->jobs() : 0) +
           ", \"batch\": \"closed\"}";
  }

 private:
  WorkloadOptions opt_;
  std::vector<ExperimentConfig> cfgs_;
  std::unique_ptr<ParallelExperimentRunner> runner_;
  std::vector<ExperimentResult> reference_;
};

// --- trace_replay ------------------------------------------------------------

class TraceReplay final : public Workload {
 public:
  explicit TraceReplay(const WorkloadOptions& opt) : opt_(opt) {
    cfg_ = normalize_config(bench::cell_config({"gromacs", 128}, 0.01, 240));
    cfg_.workload.seed = opt_.seed;
    path_ = opt_.scratch_dir + "/trace_replay.trace";
  }

  /// The in-memory trace lives only here, so peak_rss_mib counts the
  /// replay path's copy of it, not the benchmark's.
  void setup() override {
    const Trace trace = generate_experiment_trace(cfg_);
    write_trace_file(path_, trace);
    const BaselineLegResult b = run_baseline_leg(cfg_, trace);
    const ManagedLegResult m = run_managed_leg(cfg_, trace);
    reference_ = combine_legs(trace, b, m);
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    trace_bytes_ = static_cast<double>(in.tellg());
  }

  OpOutcome run_op(Tracer& tracer) override {
    OpOutcome op;
    Trace trace;
    {
      const auto span = tracer.span("trace.read");
      trace = read_trace_file(path_);
    }
    {
      const auto span = tracer.span("trace.validate");
      if (const std::string problem = trace.validate(); !problem.empty()) {
        op.fail("trace_replay: invalid trace: " + problem);
        return op;
      }
    }
    obs::CellMetrics cell;
    cell.app = trace.app_name();
    cell.nranks = trace.nranks();
    cell.displacement = cfg_.ppa.displacement_factor;
    auto probe = [&](obs::ReplayMetrics* slot) {
      return [&, slot](const ReplayEngine& engine, const ReplayResult& rr) {
        {
          const auto span = tracer.span("check.audit");
          if (const std::string v = audit_replay(engine, cfg_.power);
              !v.empty()) {
            op.fail("trace_replay: audit_replay: " + v);
          }
        }
        const auto span = tracer.span("obs.collect");
        *slot = obs::collect_replay_metrics(engine, rr, cfg_.power);
      };
    };
    BaselineLegResult b;
    ManagedLegResult m;
    {
      const auto span = tracer.span("sim.baseline");
      b = run_baseline_leg(cfg_, trace, probe(&cell.baseline));
    }
    {
      const auto span = tracer.span("sim.managed");
      m = run_managed_leg(cfg_, trace, probe(&cell.managed));
    }
    for (const obs::ReplayMetrics* leg : {&cell.baseline, &cell.managed}) {
      if (const std::string v = obs::validate_metrics(*leg); !v.empty()) {
        op.fail("trace_replay: validate_metrics: " + v);
      }
    }
    std::int64_t bytes = 0;
    {
      const auto span = tracer.span("obs.export");
      std::ofstream json(opt_.scratch_dir + "/trace_replay.metrics.json");
      obs::write_metrics_json(json, {cell});
      std::ofstream prv(opt_.scratch_dir + "/trace_replay.power.prv");
      obs::write_power_prv(prv, cell.managed, cell.app);
      bytes = static_cast<std::int64_t>(json.tellp() + prv.tellp());
      if (!json || !prv) op.fail("trace_replay: telemetry export failed");
    }
    const ExperimentResult result = combine_legs(trace, b, m);
    if (!bit_identical(result, reference_)) {
      op.fail("trace_replay: replay of the read trace differs from the "
              "in-memory trace's");
    }
    CellFold fold;
    fold.add(cfg_, result, &kFig9Paper[4]);  // GROMACS@128
    fold.finish(op);
    op.layer["obs.export_bytes"] = static_cast<double>(bytes);
    op.layer["sim.baseline_events"] = static_cast<double>(b.events);
    return op;
  }

  void corrupt_reference() override { reference_.managed_time.ns += 1; }

  void layer_pass(Tracer& tracer, double budget_s, Metrics& out) override {
    const std::vector<Trace> traces = timed_generate({cfg_}, tracer, out);
    const double read_ms = out["trace.read_ms"];
    out["trace.read_mb_per_s"] =
        read_ms > 0.0 ? trace_bytes_ / 1e6 / (read_ms / 1e3) : 0.0;
    AgentTiming timing;
    timing.add(baseline_call_timelines(cfg_, traces[0]), cfg_.ppa);
    timing.write(out);
    run_ladder(ladder_for(cfg_, kFullLadder), traces[0], tracer, budget_s, out);
  }

  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] std::string config_json() const override {
    return "{\"cell\": " + cfg_json(cfg_) +
           ", \"trace_format\": \"ibpower trace v1 text\"}";
  }

 private:
  WorkloadOptions opt_;
  ExperimentConfig cfg_;
  std::string path_;
  ExperimentResult reference_;
  double trace_bytes_{0.0};
};

// --- fabric_scale ------------------------------------------------------------

class FabricScale final : public Workload {
 public:
  explicit FabricScale(const WorkloadOptions& opt) {
    cfg_ = bench::cell_config({"gromacs+host", 1024}, 0.01, 60);
    cfg_.workload.seed = opt.seed;
    cfg_.fabric.xgft = XgftParams{8, 8, 1, 4, 16, 2};
    cfg_.fabric.routing.strategy = RoutingStrategy::Consolidate;
    cfg_.fabric.trunk.kind = TrunkPolicyKind::Timeout;
    cfg_.fabric.contention = true;
  }

  void setup() override { reference_ = run_experiment(cfg_); }

  /// run_experiment's own body, so each call into it gets a span.
  OpOutcome run_op(Tracer& tracer) override {
    OpOutcome op;
    const ExperimentConfig cfg = normalize_config(cfg_);
    Trace trace;
    {
      const auto span = tracer.span("workloads.generate");
      trace = generate_experiment_trace(cfg);
    }
    BaselineLegResult b;
    ManagedLegResult m;
    {
      const auto span = tracer.span("sim.baseline");
      b = run_baseline_leg(cfg, trace);
    }
    {
      const auto span = tracer.span("sim.managed");
      m = run_managed_leg(cfg, trace);
    }
    const ExperimentResult result = combine_legs(trace, b, m);
    op.layer["sim.baseline_events"] = static_cast<double>(b.events);
    if (!bit_identical(result, reference_)) {
      op.fail("fabric_scale: result differs from the set-up reference");
    }
    CellFold fold;
    fold.add(cfg_, result);
    fold.finish(op);
    return op;
  }

  void corrupt_reference() override { reference_.system_savings_pct += 1.0; }

  void layer_pass(Tracer& tracer, double budget_s, Metrics& out) override {
    const ExperimentConfig cfg = normalize_config(cfg_);
    const std::vector<Trace> traces = timed_generate({cfg}, tracer, out);
    out["power.trunk_wakes"] = trunk_wakes({cfg}, {&traces[0]});
    AgentTiming timing;
    timing.add(baseline_call_timelines(cfg, traces[0]), cfg.ppa);
    timing.write(out);
    run_ladder(ladder_for(cfg, kFullLadder), traces[0], tracer, budget_s, out);
  }

  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] std::string config_json() const override {
    return "{\"cell\": " + cfg_json(cfg_) + "}";
  }

 private:
  ExperimentConfig cfg_;
  ExperimentResult reference_;
};

// --- campaign_mix ------------------------------------------------------------

class CampaignMix final : public Workload {
 public:
  explicit CampaignMix(const WorkloadOptions& opt) : opt_(opt) {
    static const char* const kApps[] = {"gromacs", "amr", "ml_train", "bursty"};
    static const std::pair<const char*, const char*> kConfigs[] = {
        {"ppa", "\"predictor\":\"ppa\""},
        {"histogram", "\"predictor\":\"histogram\""},
        {"multi-timeout", "\"predictor\":\"multi-timeout\""},
        {"histogram-guard50", "\"predictor\":\"histogram\",\"guard_us\":50"},
        {"ppa-trunk",
         "\"predictor\":\"ppa\",\"routing\":\"consolidate\","
         "\"trunk_policy\":\"timeout\""},
        {"multi-timeout-trunk",
         "\"predictor\":\"multi-timeout\",\"routing\":\"consolidate\","
         "\"trunk_policy\":\"multi-timeout\""},
    };
    for (const char* app : kApps) {
      for (const auto& [label, knobs] : kConfigs) {
        lines_.push_back(std::string("{\"id\":\"") + app + "-" + label +
                         "\",\"app\":\"" + app +
                         "\",\"nranks\":128,\"iterations\":100,\"seed\":" +
                         std::to_string(opt_.seed) + ",\"disp\":1," + knobs +
                         "}");
      }
    }
  }

  void setup() override {
    cfgs_.clear();
    std::set<std::string> baseline_keys;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      CampaignRequest req;
      std::string error;
      if (!parse_campaign_request(lines_[i], static_cast<int>(i) + 1, &req,
                                  &error)) {
        throw std::logic_error("campaign_mix line " + std::to_string(i) +
                               ": " + error);
      }
      cfgs_.push_back(normalize_config(req.cfg));
      baseline_keys.insert(baseline_key(cfgs_.back()));
    }
    baseline_unique_frac_ = static_cast<double>(baseline_keys.size()) /
                            static_cast<double>(cfgs_.size());
    runner_ = std::make_unique<ParallelExperimentRunner>(opt_.workers);
    ParallelExperimentRunner serial(1);
    Tracer off(false);
    reference_rows_.clear();
    OpOutcome unused;
    (void)run_session(serial, off, &reference_rows_, unused);
  }

  OpOutcome run_op(Tracer& tracer) override {
    OpOutcome op;
    runner_->engine().reset();  // per-op scheduler counters
    const auto t0 = Clock::now();
    std::vector<std::string> rows;
    const CampaignCacheStats stats = run_session(*runner_, tracer, &rows, op);
    const double wall_ms = ms_since(t0);
    if (rows.size() != reference_rows_.size()) {
      op.fail("campaign_mix: " + std::to_string(rows.size()) + " rows, want " +
              std::to_string(reference_rows_.size()));
    }
    for (std::size_t i = 0; i < rows.size() && i < reference_rows_.size();
         ++i) {
      if (rows[i] != reference_rows_[i]) {
        op.fail("campaign_mix row " + std::to_string(i) +
                " differs from the 1-worker reference row");
      }
    }
    op.counters.trace_builds = stats.trace_builds;
    op.layer["campaign.trace_hit_frac"] =
        static_cast<double>(stats.trace_hits) /
        static_cast<double>(stats.requests);
    op.layer["campaign.baseline_unique_frac"] = baseline_unique_frac_;
    add_sched_layers(*runner_, wall_ms, op.layer["sched.work_ms"], op);
    return op;
  }

  void corrupt_reference() override { reference_rows_.back() += " "; }

  void layer_pass(Tracer& tracer, double budget_s, Metrics& out) override {
    // One trace per distinct trace key, one baseline per distinct
    // baseline key; every row reuses them exactly as the session does.
    std::map<std::string, std::size_t> trace_of;
    std::vector<ExperimentConfig> distinct;
    for (const ExperimentConfig& cfg : cfgs_) {
      if (trace_of.emplace(trace_cache_key(cfg), distinct.size()).second) {
        distinct.push_back(cfg);
      }
    }
    const std::vector<Trace> traces = timed_generate(distinct, tracer, out);
    auto trace_for = [&](const ExperimentConfig& cfg) -> const Trace& {
      return traces[trace_of.at(trace_cache_key(cfg))];
    };

    std::map<std::string, std::uint64_t> baseline_events;
    std::map<std::string, std::vector<std::vector<MpiCallEvent>>> timelines;
    std::uint64_t events = 0;
    AgentTiming timing;
    std::vector<const Trace*> row_traces;
    for (const ExperimentConfig& cfg : cfgs_) {
      const std::string key = baseline_key(cfg);
      if (!baseline_events.contains(key)) {
        baseline_events[key] = run_baseline_leg(cfg, trace_for(cfg)).events;
        timelines[key] = baseline_call_timelines(cfg, trace_for(cfg));
      }
      events += baseline_events[key];
      timing.add(timelines[key], cfg.ppa);
      row_traces.push_back(&trace_for(cfg));
    }
    timing.write(out);
    out["sim.baseline_events"] = static_cast<double>(events);
    out["power.trunk_wakes"] = trunk_wakes(cfgs_, row_traces);

    // The trunk ladder on the consolidating-routing GROMACS row.
    const ExperimentConfig& trunk_row = cfgs_[4];
    run_ladder(ladder_for(trunk_row, {Rung::Baseline, Rung::Ppa,
                                      Rung::Histogram, Rung::Trunk}),
               trace_for(trunk_row), tracer, budget_s, out);
  }

  [[nodiscard]] unsigned threads() const override { return opt_.workers; }

  [[nodiscard]] std::string config_json() const override {
    std::string lines = "[";
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      lines += (i == 0 ? "\"" : ", \"") + json_escape(lines_[i]) + "\"";
    }
    return "{\"jsonl\": " + lines + "], \"workers\": " +
           std::to_string(runner_ ? runner_->jobs() : 0) +
           ", \"reference_workers\": 1, \"batch\": \"closed\"}";
  }

 private:
  /// Everything run_baseline_leg reads: the trace and the fabric it is
  /// replayed on (the baseline leg runs with every trunk awake).
  static std::string baseline_key(const ExperimentConfig& cfg) {
    return trace_cache_key(cfg) + "|" +
           routing_strategy_name(cfg.fabric.routing.strategy) + "|" +
           xgft_spec(cfg.fabric.xgft) + "|" +
           (cfg.fabric.contention ? "contention" : "legacy") + "|" +
           std::to_string(cfg.eager_threshold) + "|" +
           std::to_string(cfg.shards);
  }

  /// Streams every line through parse → session → format, like
  /// `ibpower_cli campaign --in FILE`: rows drain while lines are read.
  CampaignCacheStats run_session(ParallelExperimentRunner& runner,
                                 Tracer& tracer,
                                 std::vector<std::string>* rows,
                                 OpOutcome& op) {
    CellFold fold;
    double gen_ms = 0.0;
    double base_ms = 0.0;
    double managed_ms = 0.0;
    CampaignCacheStats stats;
    {
      const auto span = tracer.span("campaign.session");
      CampaignSession session(runner);
      CampaignRow row;
      auto emit = [&] {
        std::string text;
        {
          const auto format = tracer.span("campaign.format");
          text = format_campaign_row(row);
        }
        const std::size_t i = rows->size();
        if (!row.ok) {
          op.fail("campaign_mix row " + std::to_string(i) + ": " + row.error);
        } else if (i < cfgs_.size()) {
          fold.add(cfgs_[i], row.result, i == 0 ? &kFig9Paper[4] : nullptr);
        }
        gen_ms += row.gen_ms;
        base_ms += row.base_ms;
        managed_ms += row.managed_ms;
        rows->push_back(std::move(text));
      };
      for (std::size_t i = 0; i < lines_.size(); ++i) {
        CampaignRequest req;
        std::string error;
        bool parsed = false;
        {
          const auto parse = tracer.span("campaign.parse");
          parsed = parse_campaign_request(lines_[i], static_cast<int>(i) + 1,
                                          &req, &error);
        }
        if (parsed) {
          session.submit(std::move(req));
        } else {
          session.submit_error("req-" + std::to_string(i + 1), error);
        }
        while (session.try_pop(&row)) emit();
      }
      while (session.pop(&row)) emit();
      stats = session.cache_stats();
    }
    // The session returns once every row is final, which can be before the
    // engine has retired the last finalize task.
    runner.engine().wait_all();
    fold.finish(op);
    op.layer["workloads.gen_ms"] = gen_ms;
    op.layer["sim.baseline_ms"] = base_ms;
    op.layer["sim.managed_ms"] = managed_ms;
    op.layer["sched.work_ms"] = base_ms + managed_ms;
    return stats;
  }

  WorkloadOptions opt_;
  std::vector<std::string> lines_;
  std::vector<ExperimentConfig> cfgs_;
  std::unique_ptr<ParallelExperimentRunner> runner_;
  std::vector<std::string> reference_rows_;
  double baseline_unique_frac_{0.0};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_grid", "trace_replay",
                                                 "fabric_scale", "campaign_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(opt);
  if (name == "trace_replay") return std::make_unique<TraceReplay>(opt);
  if (name == "fabric_scale") return std::make_unique<FabricScale>(opt);
  if (name == "campaign_mix") return std::make_unique<CampaignMix>(opt);
  return nullptr;
}

}  // namespace perfbench
