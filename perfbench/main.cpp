// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-describe TEXT]
//
// Prints a manifest line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Usually started through
// run.py, which builds this binary first.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr const char* kSchema = "ibpower-perfbench:v1";

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (tracing off), in BENCHMARK.json order.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_events_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"switch_savings_pct", "%"},
    {"time_increase_pct", "%"},
    {"fabric_savings_pct", "%"},
};

// The per-layer metrics (traced run), in BENCHMARK.json order. A layer that
// does not run in a workload reports 0.
const MetricDef kPerLayer[] = {
    {"workloads.gen_ms", "ms"},
    {"workloads.gen_ns_per_record", "ns"},
    {"trace.read_ms", "ms"},
    {"trace.read_mb_per_s", "MB/s"},
    {"trace.validate_ms", "ms"},
    {"sim.baseline_ms", "ms"},
    {"sim.managed_ms", "ms"},
    {"sim.baseline_ns_per_event", "ns"},
    {"sim.managed_ns_per_event", "ns"},
    {"sim.events", "count"},
    {"sim.messages", "count"},
    {"sim.mpi_calls", "count"},
    {"core.agent_ns_per_call", "ns"},
    {"core.scan_frac", "frac"},
    {"core.ns_per_scan", "ns"},
    {"core.hit_rate_pct", "%"},
    {"core.pattern_mispredicts", "count"},
    {"core.ppa_ns_per_event", "ns"},
    {"core.histogram_ns_per_event", "ns"},
    {"network.contention_ns_per_event", "ns"},
    {"network.on_demand_wakes", "count"},
    {"power.trunk_ns_per_event", "ns"},
    {"power.trunk_wakes", "count"},
    {"host.countdown_ns_per_event", "ns"},
    {"host.cap_ns_per_event", "ns"},
    {"host.pstate_changes", "count"},
    {"obs.collect_ms", "ms"},
    {"obs.export_ms", "ms"},
    {"obs.export_bytes", "bytes"},
    {"obs.timeline_ns_per_event", "ns"},
    {"check.audit_ms", "ms"},
    {"sched.work_ms", "ms"},
    {"sched.speedup", "x"},
    {"sched.utilization", "frac"},
    {"sched.steals", "count"},
    {"campaign.parse_us_per_row", "us"},
    {"campaign.format_us_per_row", "us"},
    {"campaign.trace_hit_frac", "frac"},
    {"campaign.baseline_unique_frac", "frac"},
    {"model.uplink_savings_pct", "%"},
    {"model.system_savings_pct", "%"},
    {"model.fig9_mae_pts", "pts"},
    {"bench.raw_wall_s", "s"},
    {"bench.calibration_s", "s"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead_s", "s"},
};

// Spans recorded around the calls into each layer → per-op layer metrics.
struct SpanMetric {
  const char* span;
  const char* metric;
  bool self;    // self time (children excluded) instead of total
  bool per_call;  // divide by the span count (us per call) instead of per op
};
const SpanMetric kSpanMetrics[] = {
    {"workloads.generate", "workloads.gen_ms", false, false},
    {"trace.read", "trace.read_ms", false, false},
    {"trace.validate", "trace.validate_ms", false, false},
    {"sim.baseline", "sim.baseline_ms", true, false},
    {"sim.managed", "sim.managed_ms", true, false},
    {"check.audit", "check.audit_ms", false, false},
    {"obs.collect", "obs.collect_ms", false, false},
    {"obs.export", "obs.export_ms", false, false},
    {"campaign.parse", "campaign.parse_us_per_row", false, true},
    {"campaign.format", "campaign.format_us_per_row", false, true},
};

const char* const kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--out-dir DIR] [--git-describe TEXT]\n"
    "  workloads: paper_grid trace_replay fabric_scale campaign_mix\n"
    "  --seed N        workload seed (default 42)\n"
    "  --seconds S     measurement budget per run (default 10)\n"
    "  --trace 0|1     0: end-to-end metrics; 1: per-layer metrics\n"
    "  --out-dir DIR   report, spans and scratch files\n"
    "                  (default .bench_build/perfbench-out)\n"
    "  --git-describe  source revision recorded in the manifest\n";

struct Options {
  std::string workload;
  std::uint64_t seed{42};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir{".bench_build/perfbench-out"};
  std::string git_describe{"unknown"};
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 18) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &n)) usage_error("bad --seed '" + value + "'");
      opt.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 3600) {
        usage_error("bad --seconds '" + value + "' (1..3600)");
      }
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else if (flag == "--git-describe") {
      opt.git_describe = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == opt.workload;
  if (!known) usage_error("unknown workload '" + opt.workload + "'");
  return opt;
}

/// CPU seconds the calling thread has run. Time the hypervisor steals from
/// the VM's cores is not counted.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string manifest_json(const Options& opt, unsigned workers,
                          std::size_t setups,
                          const std::string& workload_config) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git_describe\": \"%s\", \"nproc\": %u, \"usable_cores\": %u, "
      "\"workers\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"setups\": %zu, \"config\": ",
      kSchema, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      json_escape(opt.git_describe).c_str(),
      std::thread::hardware_concurrency(),
      ibpower::ThreadPool::default_concurrency(), workers,
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, setups);
  return std::string(buf) + workload_config + "}";
}

std::string metrics_json(const MetricDef* defs, std::size_t n,
                         const Metrics& values) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name,
                  it == values.end() ? 0.0 : it->second, defs[i].unit);
    out += buf;
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Runs operations and keeps the books: attempts, failures, timings, and
/// the exact repetition of every deterministic output.
class OpRunner {
 public:
  OpRunner(Workload& workload, Tracer& tracer)
      : workload_(workload), tracer_(tracer) {}

  /// One checked operation; returns its wall seconds.
  double run(bool traced, OpOutcome* outcome_out = nullptr) {
    tracer_.set_enabled(traced);
    tracer_.set_op(traced ? next_op_++ : -1);
    OpOutcome outcome;
    const auto t0 = Clock::now();
    try {
      outcome = workload_.run_op(tracer_);
    } catch (const std::exception& e) {
      outcome.fail(std::string("exception: ") + e.what());
    }
    const double seconds = seconds_since(t0);
    tracer_.set_enabled(false);
    if (outcome.ok) check_repeat(outcome);
    ++attempted_;
    if (!outcome.ok) {
      ++failed_;
      if (failed_ <= 3) {
        std::fprintf(stderr, "perfbench: failed operation: %s\n",
                     outcome.error.c_str());
      }
    }
    if (outcome_out != nullptr) *outcome_out = outcome;
    return seconds;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const OpOutcome& first() const { return first_; }

 private:
  void check_repeat(OpOutcome& outcome) {
    if (!have_first_) {
      first_ = outcome;
      have_first_ = true;
      return;
    }
    if (!(outcome.counters == first_.counters)) {
      outcome.fail("deterministic counters differ from the first operation");
    }
    const SimOutcome& a = outcome.sim;
    const SimOutcome& b = first_.sim;
    if (a.switch_savings_pct != b.switch_savings_pct ||
        a.fabric_savings_pct != b.fabric_savings_pct ||
        a.time_increase_pct != b.time_increase_pct) {
      outcome.fail("simulated outcome differs from the first operation");
    }
  }

  Workload& workload_;
  Tracer& tracer_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::int64_t next_op_{0};
  bool have_first_{false};
  OpOutcome first_;
};

/// Per-op layer metrics of the traced operations: span totals and the
/// workload's own per-op numbers, averaged over those operations.
Metrics traced_layer_means(const Tracer& tracer,
                           const std::vector<OpOutcome>& traced) {
  Metrics out;
  const double ops = traced.empty() ? 1.0 : static_cast<double>(traced.size());
  const auto totals = tracer.op_totals();
  for (const SpanMetric& m : kSpanMetrics) {
    const auto it = totals.find(m.span);
    if (it == totals.end()) continue;
    const double ns = m.self ? it->second.self_ns : it->second.total_ns;
    out[m.metric] = m.per_call
                        ? ns / 1e3 / static_cast<double>(it->second.count)
                        : ns / 1e6 / ops;
  }
  for (const OpOutcome& op : traced) {
    for (const auto& [name, value] : op.layer) out[name] += value / ops;
  }
  return out;
}

/// Host-speed calibration. Shared hosts change speed by 20-80 % within
/// seconds (cache, memory and core headroom follow what other tenants run),
/// which no statistic within one run can remove. A pass of this fixed kernel,
/// on as many threads as the timed work keeps busy, slows down with the host,
/// so host times are reported in reference seconds: seconds on a host where
/// one pass takes kReferencePassSeconds of CPU time per thread. The kernel is
/// a miniature discrete-event loop (binary heap, per-node event histories
/// and pairing state), so it leans on the same caches and branch predictors
/// as the simulator; a cache-resident integer loop tracked the slowdowns
/// only weakly. It shares no code with the simulator, so a change to the
/// simulator moves only the numerator, and after its warm-up pass it
/// allocates nothing: passes that allocated from the heap the simulator had
/// just fragmented ran up to 1.7x slower right after a set-up, which
/// measured the process, not the host.
///
/// A pass is measured by the CPU time of its threads, not by its wall time:
/// a multi-threaded pass's wall time is set by its slowest thread and by
/// when the kernel schedules each thread, which tracked the timed work less
/// well (on the 4-worker workloads the run-to-run spread of wall_s halved).
class Calibration {
 public:
  struct Pass {
    double wall{0.0};  // seconds until every thread finished
    double cpu{0.0};   // mean CPU seconds per thread
  };

  explicit Calibration(unsigned threads) {
    for (unsigned t = 0; t < std::max(1u, threads); ++t) {
      loops_.push_back(std::make_unique<EventLoop>(t));
    }
    (void)pass();  // warm the loops' memory
  }

  Pass pass() {
    const auto t0 = Clock::now();
    std::vector<double> cpu(loops_.size(), 0.0);
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < loops_.size(); ++t) {
      helpers.emplace_back([this, t, &cpu] { cpu[t] = loops_[t]->run(kStepsPerPass); });
    }
    cpu[0] = loops_[0]->run(kStepsPerPass);
    for (std::thread& h : helpers) h.join();
    Pass p;
    p.wall = seconds_since(t0);
    for (double c : cpu) p.cpu += c / static_cast<double>(cpu.size());
    return p;
  }

 private:
  static constexpr int kStepsPerPass = 750000;

  /// One thread's event loop; its state persists from pass to pass, so a
  /// pass times steady-state work, not first-touch allocation.
  class EventLoop {
   public:
    explicit EventLoop(unsigned seed)
        : history_(kNodes), pending_(kNodes, kNone),
          x_(0x9E3779B97F4A7C15ull + seed) {
      for (std::uint32_t i = 0; i < 4096; ++i) {
        queue_.push({next() % 1000, static_cast<std::uint32_t>(next() % kNodes), i});
      }
    }

    /// Runs `steps` events; returns the CPU seconds they took.
    double run(int steps) {
      const double cpu0 = thread_cpu_seconds();
      for (int step = 0; step < steps; ++step) {
        const Event e = queue_.top();
        queue_.pop();
        std::vector<std::uint64_t>& h = history_[e.node];
        h.push_back(e.time ^ e.seq);
        if (h.size() > 24) {
          acc_ += h[h.size() / 2];
          h.clear();  // keeps its capacity: no allocation after warm-up
        }
        // A node's events pair up: every second one settles the first.
        std::uint64_t& pending = pending_[e.node];
        if (pending != kNone) {
          acc_ += e.time - pending;
          pending = kNone;
        } else {
          pending = e.time;
        }
        queue_.push({e.time + 1 + next() % 997,
                     static_cast<std::uint32_t>(next() % kNodes), e.seq + 1});
      }
      sink_ = acc_;  // keep the work
      return thread_cpu_seconds() - cpu0;
    }

   private:
    static constexpr std::uint32_t kNodes = 1u << 13;
    static constexpr std::uint64_t kNone = ~0ull;

    struct Event {
      std::uint64_t time;
      std::uint32_t node;
      std::uint32_t seq;
      bool operator<(const Event& o) const { return time > o.time; }
    };

    std::uint64_t next() {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      return x_;
    }

    std::vector<std::vector<std::uint64_t>> history_;
    std::vector<std::uint64_t> pending_;  // per node: open event time or kNone
    std::priority_queue<Event> queue_;
    std::uint64_t x_;
    std::uint64_t acc_{0};
    volatile std::uint64_t sink_{0};
  };

  std::vector<std::unique_ptr<EventLoop>> loops_;
};

/// CPU seconds per thread of one calibration pass on the reference host.
/// Any constant would do: it only fixes the unit. On a lightly loaded 4-core
/// x86-64 VM a pass takes about this long, so reference seconds are close to
/// wall seconds there.
constexpr double kReferencePassSeconds = 0.075;

/// The calibration passes between two timed items: their wall and CPU
/// seconds, and the median CPU seconds that normalises the neighbouring
/// items (one pass for operations; several for the long, few set-ups).
struct Gap {
  std::vector<Calibration::Pass> passes;
  double cpu{0.0};
};

Gap calibrate(Calibration& calib, int passes) {
  Gap gap;
  std::vector<double> cpu;
  for (int i = 0; i < passes; ++i) {
    gap.passes.push_back(calib.pass());
    cpu.push_back(gap.passes.back().cpu);
  }
  gap.cpu = median(cpu);
  return gap;
}

/// Reference seconds of timed work, one sample per item: each item's wall
/// seconds over the mean of the calibration gaps right before and right
/// after it (`gaps` holds one more entry than `wall`). The median of these
/// is the run's estimate; pairing each sample with its neighbouring passes
/// follows the host through its fast and slow phases.
std::vector<double> reference_seconds(const std::vector<double>& wall,
                                      const std::vector<Gap>& gaps) {
  std::vector<double> out;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    out.push_back(wall[i] * kReferencePassSeconds /
                  (0.5 * (gaps[i].cpu + gaps[i + 1].cpu)));
  }
  return out;
}

/// Every pass of `gaps` as two JSON arrays: "<name>" (wall seconds) and
/// "<name>_cpu" (CPU seconds per thread).
std::string gaps_json(const std::string& name, const std::vector<Gap>& gaps) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Gap& g : gaps) {
    for (const Calibration::Pass& p : g.passes) {
      wall.push_back(p.wall);
      cpu.push_back(p.cpu);
    }
  }
  return "\"" + name + "\": " + json_array(wall) + ", \"" + name +
         "_cpu\": " + json_array(cpu);
}

void derive_sim_rates(Metrics& m) {
  const double base_events = m["sim.baseline_events"];
  const double managed_events = m["sim.events"] - base_events;
  if (base_events > 0.0) {
    m["sim.baseline_ns_per_event"] = m["sim.baseline_ms"] * 1e6 / base_events;
  }
  if (managed_events > 0.0) {
    m["sim.managed_ns_per_event"] = m["sim.managed_ms"] * 1e6 / managed_events;
  }
}

int run(const Options& opt) {
  namespace fs = std::filesystem;
  const std::string scratch =
      opt.out_dir + "/scratch-" + std::to_string(getpid());
  fs::create_directories(scratch);

  WorkloadOptions wopt;
  wopt.seed = opt.seed;
  wopt.workers =
      std::min(4u, std::max(1u, ibpower::ThreadPool::default_concurrency()));
  wopt.scratch_dir = scratch;

  // Set-up, timed on fresh workloads at least three times and, for cheap
  // set-ups, until 10 % of the budget is spent (at most 15 times), so the
  // median is not one noisy sample; the last workload is kept. Set-ups are
  // serial, so their calibration passes run on one thread, three between
  // set-ups: a set-up takes up to seconds, and one pass samples the host at
  // a single moment.
  std::unique_ptr<Workload> workload = make_workload(opt.workload, wopt);
  Calibration serial_calib(1);
  constexpr int kSetupPasses = 3;
  std::vector<double> setup_wall;
  std::vector<Gap> setup_gaps = {calibrate(serial_calib, kSetupPasses)};
  double setup_total = 0.0;
  for (int i = 0;
       i < 3 || (i < 15 && setup_total < 0.1 * opt.seconds); ++i) {
    if (i > 0) workload = make_workload(opt.workload, wopt);
    const auto t0 = Clock::now();
    workload->setup();
    setup_wall.push_back(seconds_since(t0));
    setup_total += setup_wall.back();
    setup_gaps.push_back(calibrate(serial_calib, kSetupPasses));
  }
  const std::string manifest =
      manifest_json(opt, wopt.workers, setup_wall.size(),
                    workload->config_json());
  std::printf("%s\n", manifest.c_str());
  std::fflush(stdout);

  Tracer tracer(false);
  OpRunner ops(*workload, tracer);
  (void)ops.run(false);  // warm-up: checked, not timed

  // Timed operations, each followed by a calibration pass on as many
  // threads as an operation keeps busy. A traced run interleaves a traced
  // operation after each pass.
  Calibration calib(workload->threads());
  Metrics metrics;
  const double measure_s = opt.trace ? 0.6 * opt.seconds : opt.seconds;
  std::vector<double> wall;
  std::vector<Gap> gaps = {calibrate(calib, 1)};
  std::vector<double> trace_overhead;  // traced minus the untraced op before
  std::vector<OpOutcome> traced;
  std::uint64_t op_events = 0;
  const auto start = Clock::now();
  while (wall.size() < 5 || (opt.trace && traced.size() < 3) ||
         seconds_since(start) < measure_s) {
    OpOutcome outcome;
    wall.push_back(ops.run(false, &outcome));
    gaps.push_back(calibrate(calib, 1));
    op_events = outcome.counters.events;
    if (opt.trace) {
      trace_overhead.push_back(ops.run(true, &outcome) - wall.back());
      traced.push_back(outcome);
    }
  }

  // Self-test of the output checks: a damaged reference must be reported
  // as a failed operation, not crash the benchmark or pass unnoticed.
  workload->corrupt_reference();
  bool self_test_ok = false;
  try {
    self_test_ok = !workload->run_op(tracer).ok;
  } catch (const std::exception&) {
    self_test_ok = true;  // counted as a failed operation, not a crash
  }
  if (!self_test_ok) {
    std::fprintf(stderr, "perfbench: self-test: corrupted reference passed\n");
  }

  if (!opt.trace) {
    const SimOutcome& sim = ops.first().sim;
    const double wall_s = median(reference_seconds(wall, gaps));
    metrics["setup_s"] = median(reference_seconds(setup_wall, setup_gaps));
    metrics["wall_s"] = wall_s;
    metrics["sim_events_per_s"] = static_cast<double>(op_events) / wall_s;
    metrics["peak_rss_mib"] = peak_rss_mib();
    metrics["switch_savings_pct"] = sim.switch_savings_pct;
    metrics["time_increase_pct"] = sim.time_increase_pct;
    metrics["fabric_savings_pct"] = sim.fabric_savings_pct;
  } else {
    metrics = traced_layer_means(tracer, traced);
    workload->layer_pass(tracer, 0.4 * opt.seconds, metrics);
    derive_sim_rates(metrics);
    metrics["bench.raw_wall_s"] = median(wall);
    std::vector<double> pass_cpu;
    for (const Gap& g : gaps) pass_cpu.push_back(g.cpu);
    metrics["bench.calibration_s"] = median(pass_cpu);
    metrics["bench.trace_overhead_s"] = median(trace_overhead);
    metrics["bench.traced_wall_s"] =
        metrics["bench.raw_wall_s"] + metrics["bench.trace_overhead_s"];
    std::ofstream spans(opt.out_dir + "/" + opt.workload + "-seed" +
                        std::to_string(opt.seed) + "-spans.json");
    spans << tracer.to_json();
  }

  const MetricDef* defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  const std::string result_metrics = metrics_json(defs, ndefs, metrics);
  const bool correct = ops.failed() == 0 && self_test_ok;
  {
    std::ofstream report(opt.out_dir + "/" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + "-trace" +
                         (opt.trace ? "1" : "0") + ".json");
    report << "{\"manifest\": " << manifest << ", \"correct\": "
           << (correct ? "true" : "false") << ", \"attempted\": "
           << ops.attempted() << ", \"failed\": " << ops.failed()
           << ", \"self_test\": " << (self_test_ok ? "true" : "false")
           << ", \"metrics\": " << result_metrics
           << ", \"samples_s\": {\"setup\": " << json_array(setup_wall)
           << ", " << gaps_json("setup_calibration", setup_gaps)
           << ", \"op\": " << json_array(wall) << ", "
           << gaps_json("op_calibration", gaps) << "}}\n";
  }
  fs::remove_all(scratch);
  workload.reset();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted()),
      static_cast<unsigned long long>(ops.failed()), result_metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  // Keep freed memory in the process instead of handing it back to the
  // kernel: every set-up and operation rebuilds hundreds of MiB, and on a
  // VM the page faults of re-touching returned memory cost a varying share
  // of host time (set-ups spread 30-40 % from run to run without this).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
