#pragma once
// Shared pieces of the end-to-end benchmark binary: options, the span
// tracer, the report each workload fills, and small statistics helpers.
//
// Every number rlsched_e2e reports is measured from OUTSIDE the library:
// spans wrap the benchmark's own calls into public headers, so a layer's cost
// shows up without instrumenting the code under test.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;   ///< measured time of the run (set-up excluded)
  std::string trace_file;  ///< non-empty: traced run, spans written here
  std::string data_dir;    ///< archive shard directory (see --prepare)
  bool smoke = false;      ///< ~1/50 scale for the smoke test

  bool traced() const { return !trace_file.empty(); }
};

/// Set-up is timed this many times per run and its median reported, so one
/// slow set-up (page cache, allocator growth) does not move setup_s.
inline constexpr int kSetupRepeats = 3;

/// Generator seed of the fixed traces that replay and archive ask what-ifs
/// of (see what_if).
inline constexpr std::uint64_t kTraceSeed = 42;

/// The seed's what-if of a fixed trace: every job's run time scaled by its
/// own factor in [0.95, 1.05], the requested time raised to cover it. Each
/// seed schedules different jobs, but the trace's busy stretches stay where
/// they are, so how congested it is (and so the work per job and the
/// backlog the simulator holds) belongs to the trace, not to the seed. A
/// fresh trace per seed moved replay's throughput by about 12% and the
/// archive's peak backlog, and with it the memory, by 2-3x.
std::vector<rlsched::trace::Job> what_if(const rlsched::trace::Trace& base,
                                         std::uint64_t seed);

// --- clock and statistics ---------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Wall time of one call of `f`, in seconds.
template <class F>
double timed(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return seconds_since(t0);
}

/// Median of a copy; 0 for an empty vector.
double median(std::vector<double> v);

/// Smallest element; 0 for an empty vector. The benchmark's estimate of
/// the cost of work it repeats: other tenants of the host only ever slow a
/// unit down, so the fastest repeat is the closest to the code's own cost.
/// Across ten runs in a stretch where the host slowed units in bursts, it
/// spread 2-3.5x less than the median unit did.
double fastest(const std::vector<double>& v);

/// Nearest-rank percentile of a copy, p in (0, 1]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process image in MiB (Linux VmHWM).
double peak_rss_mib();

/// The measured loop of the epoch- and pass-based workloads: calls
/// `unit(slot, traced)` until opt.seconds have passed and each kind of
/// unit ran at least `min_units` times. A traced run alternates untraced
/// and traced units, so both kinds see the same host conditions; `slot`
/// counts units of one kind, for CpuRotation placement.
template <class Unit>
void measure_units(const Options& opt, std::size_t min_units, Unit&& unit) {
  std::size_t done[2] = {0, 0};
  const std::int64_t start = now_ns();
  for (std::size_t k = 0;; ++k) {
    const bool enough =
        done[0] >= min_units && (!opt.traced() || done[1] >= min_units);
    if (enough && seconds_since(start) >= opt.seconds) break;
    const bool traced = opt.traced() && k % 2 == 1;
    unit(opt.traced() ? k / 2 : k, traced);
    ++done[traced ? 1 : 0];
  }
}

/// Round-robin CPU placement for single-threaded measurement loops. On a
/// shared virtual machine one vCPU can run at half speed for seconds at a
/// time while its host core serves another tenant; a run that stays on
/// that vCPU reads slow from start to end. Pinning unit k of a run to the
/// k-th allowed CPU spreads every run over all CPUs, so the fastest unit
/// (see fastest) has had a fast one. Restores the calling thread's
/// original mask on destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin a thread of this process (0: the calling thread) to allowed CPU
  /// number k (mod the CPU count).
  void pin(std::size_t k, int tid = 0) const;
  /// Let thread `tid` run on every allowed CPU again.
  void release(int tid) const;
  std::size_t cpu_count() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
};

/// Thread ids of the `n` threads of this process, other than the calling
/// one, that have used the most CPU time so far (Linux /proc/self/task).
std::vector<int> busiest_threads(std::size_t n);

// --- tracing ----------------------------------------------------------------

/// Span recorder for ONE thread. Spans go into a buffer preallocated at
/// construction; once it is full, further spans are not kept, but the
/// per-stage aggregates still cover every call. A layer's self time is its
/// spans' duration minus the part covered by their child spans.
class Tracer {
 public:
  explicit Tracer(std::size_t span_cap);

  /// Stage id for `name`; register stages before the timed loop.
  std::uint32_t stage(const std::string& name);

  void begin(std::uint32_t stage, std::uint64_t id = 0);
  void end();
  /// A closed span with explicit bounds, measured elsewhere (e.g. the
  /// library's own epoch split); a child of the innermost open span.
  void span(std::uint32_t stage, std::uint64_t id, std::int64_t start_ns,
            std::int64_t end_ns);

  struct Totals {
    std::string name;
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  const Totals& totals(std::uint32_t stage) const { return stages_[stage]; }
  const std::vector<Totals>& all_totals() const { return stages_; }
  std::size_t kept() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Append this tracer's spans as Chrome trace-event objects ("ph":"X",
  /// viewable in Perfetto), tagged with thread id `tid`.
  void write_events(std::FILE* out, int tid, bool* first) const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  struct Span {
    std::uint32_t stage;
    std::uint32_t parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    std::uint32_t stage;
    std::uint32_t index;  ///< into spans_, or kNone when not kept
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::uint32_t record(std::uint32_t stage, std::uint64_t id,
                       std::int64_t start_ns, std::int64_t end_ns);
  void close(std::uint32_t stage, std::int64_t dur_ns, std::int64_t child_ns);

  std::size_t cap_;
  std::vector<Totals> stages_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
};

/// Spans each tracer keeps for the span file (about 2 MiB); the per-stage
/// aggregates cover every span regardless.
inline constexpr std::size_t kSpanCap = 1 << 16;

/// RAII span; a null tracer makes it free, so untraced and traced runs
/// share one loop body where that is possible.
class Scope {
 public:
  Scope(Tracer* t, std::uint32_t stage, std::uint64_t id = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(stage, id);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Write every tracer's spans to `path` as one Chrome trace file.
bool write_trace_file(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

// --- report -----------------------------------------------------------------

/// What a workload hands back to main(): metrics by name with units,
/// named correctness checks, the configuration it resolved, and free-form
/// details (JSON literals) for the per-workload result file.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, std::string>> details;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok);
  void set_config(const std::string& key, const std::string& json_value);
  void detail(const std::string& key, double value);
  void detail_list(const std::string& key, const std::vector<double>& values);
  bool correct() const;
  void print_json(std::FILE* out) const;
};

std::string json_string(const std::string& s);

/// The end of an untraced run, after its first set-up and measured phase:
/// reads peak memory now, then tears down and times `setup` kSetupRepeats
/// - 1 more times, and reports setup_s as the median of all set-ups.
/// Memory is read first so the extra set-ups' allocator churn never counts
/// as the workload's; teardown is not part of set-up time.
template <class Teardown, class Setup>
void report_setup_and_memory(Report& r, double first_setup_s,
                             Teardown&& teardown, Setup&& setup) {
  const double rss = peak_rss_mib();
  std::vector<double> setups{first_setup_s};
  for (int k = 1; k < kSetupRepeats; ++k) {
    teardown();
    setups.push_back(timed(setup));
  }
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", rss, "MiB");
}

/// One stage of a traced operation: its per-layer metric name and the
/// self time it took over all traced operations.
struct StageTime {
  std::string metric;
  double self_s = 0.0;
};

/// Per-layer metrics of a traced run: each stage's share of the traced
/// wall time `traced_total_s`, trace_overhead_frac (traced vs untraced
/// time per operation, both as the workload's own per-operation estimate)
/// and reconcile_error_frac (how far the stages' self time per operation
/// is from the untraced time per operation, as a share of the latter).
/// `reconciles` is false when one stage is the remainder of the total:
/// the stages then cover it by construction, and reconcile_error_frac
/// reads 0 like a bypassed layer.
void layer_shares(Report& r, const std::vector<StageTime>& stages,
                  double traced_total_s, double traced_op_s,
                  double untraced_op_s, bool reconciles = true);

/// Span counts of the tracers, for the result file.
void span_details(Report& r, const std::vector<const Tracer*>& tracers);

// --- workloads --------------------------------------------------------------

int run_train(const Options& opt, Report& r);
int run_replay(const Options& opt, Report& r);
int run_archive(const Options& opt, Report& r);
int run_serve(const Options& opt, Report& r);

/// Write the archive workload's input shards into `dir` (separate process,
/// so input generation is neither set-up nor measured time).
int prepare_archive(const Options& opt, const std::string& dir);

}  // namespace e2e
