// perfbench — the repository benchmark's shared types.
//
// One benchmark process runs one workload: it sets the workload up several
// times (setup_s), then repeats the workload's operation for a fixed wall
// budget, checking every operation's outputs against references computed at
// set-up. A traced run (--trace 1) additionally records spans around every
// call the benchmark makes into the simulator's public API, and runs the
// workload's layer pass: the Table IV agent timing and the layer ladder.
// README.md in this directory documents the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return 1e3 * seconds_since(t0);
}

/// Median of a sample (0 for an empty one). Takes a copy: callers keep
/// their samples in run order.
[[nodiscard]] double median(std::vector<double> v);

/// `s` as the body of a JSON string: quotes and backslashes escaped,
/// control characters dropped.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Per-layer metric values by name (units live in main.cpp's table).
using Metrics = std::map<std::string, double>;

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only on the thread that
/// drives the benchmark (the calls into the simulator's public API), kept
/// in memory and written out when the benchmark ends. Disabled tracers
/// record nothing and cost one branch per span.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index of the parent record, -1 for a root span
    std::int64_t op;      // operation id; -1 for set-up and layer passes
  };

  /// RAII span: opens on construction, closes on destruction.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_{-1};
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::int64_t op) { op_ = op; }
  [[nodiscard]] Span span(const char* name) { return Span(this, name); }

  /// Total and self nanoseconds per span name over every span recorded
  /// for an operation (op >= 0). Self time is a span's duration minus the
  /// durations of its direct children.
  struct NameTotals {
    double total_ns{0.0};
    double self_ns{0.0};
    std::uint64_t count{0};
  };
  [[nodiscard]] std::map<std::string, NameTotals> op_totals() const;

  /// Every record as one JSON document (ibpower-perfbench-spans:v1).
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::int64_t op_{-1};
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

// --- workloads ---------------------------------------------------------------

/// Simulated outcome of one operation, averaged over its cells.
struct SimOutcome {
  double switch_savings_pct{0.0};  // gated ports: uplinks, + trunks if gated
  double uplink_savings_pct{0.0};  // node uplinks only
  double fabric_savings_pct{0.0};  // all links
  double time_increase_pct{0.0};
  double system_savings_pct{0.0};  // cells with host co-management only
  double fig9_mae_pts{0.0};        // cells with a Fig. 9 reference only
};

/// Counters that must repeat exactly from one operation to the next.
struct DeterministicCounters {
  std::uint64_t events{0};  // DES events, baseline + managed
  std::uint64_t messages{0};
  std::uint64_t mpi_calls{0};
  std::uint64_t pattern_mispredicts{0};
  std::uint64_t pstate_changes{0};
  std::uint64_t on_demand_wakes{0};
  std::uint64_t trace_builds{0};  // campaign_mix only

  friend bool operator==(const DeterministicCounters&,
                         const DeterministicCounters&) = default;
};

struct OpOutcome {
  bool ok{true};
  std::string error;  // first failed check when !ok
  SimOutcome sim;
  DeterministicCounters counters;
  /// Per-operation layer numbers the workload can only see from inside the
  /// operation (runner and session accounting, cache statistics).
  Metrics layer;

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

struct WorkloadOptions {
  std::uint64_t seed{42};
  unsigned workers{4};  // engine workers for the parallel workloads
  std::string scratch_dir;  // per-process directory for files an op writes
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and the references every operation is checked
  /// against. Called on a freshly constructed workload.
  virtual void setup() = 0;

  /// One operation, checked. Throws only on a bug in the benchmark; a
  /// simulator exception is caught by the caller and counted as a failure.
  virtual OpOutcome run_op(Tracer& tracer) = 0;

  /// Damage the stored reference so the next operation must fail its
  /// check (the self-test of the output checks).
  virtual void corrupt_reference() = 0;

  /// Layer numbers measured outside the timed operations: Table IV agent
  /// timing, generator throughput, probe-only counters and the ladder.
  /// `budget_s` bounds the ladder's repeats.
  virtual void layer_pass(Tracer& tracer, double budget_s, Metrics& out) = 0;

  /// Threads one operation keeps busy (the host-speed calibration runs on
  /// as many).
  [[nodiscard]] virtual unsigned threads() const = 0;

  /// Resolved configuration, as a JSON object, for the manifest.
  [[nodiscard]] virtual std::string config_json() const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& opt);

}  // namespace perfbench
