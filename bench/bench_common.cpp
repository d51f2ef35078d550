#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/env.hpp"
#include "util/table.hpp"

namespace rlsched::bench {

bool json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return true;
  }
  return false;
}

namespace {
// Doubles print at %.17g so the JSON round-trips bitwise.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const char* s) { return std::string("\"") + s + "\""; }

std::string join(const std::vector<std::pair<std::string, std::string>>& f,
                 const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < f.size(); ++i) {
    out += (i > 0 ? sep : "") + ("\"" + f[i].first + "\": " + f[i].second);
  }
  return out;
}
}  // namespace

void Report::config(const char* key, std::size_t v) {
  config_.emplace_back(key, std::to_string(v));
}
void Report::config(const char* key, bool v) {
  config_.emplace_back(key, v ? "true" : "false");
}
void Report::config(const char* key, const char* v) {
  config_.emplace_back(key, quoted(v));
}
void Report::host(const char* key, const char* v) {
  host_.emplace_back(key, quoted(v));
}

void Report::check(const std::string& name, bool ok) {
  checks_.emplace_back(name, ok ? "true" : "false");
  if (!ok) failed_.push_back(name);
}

void Report::check_at_least(const std::string& name, double value,
                            double min) {
  checks_.emplace_back(name, "{\"value\": " + number(value) +
                                 ", \"min\": " + number(min) + "}");
  if (!(value >= min)) failed_.push_back(name + " (" + number(value) +
                                         " < " + number(min) + ")");
}

void Report::check_at_most(const std::string& name, double value,
                           double max) {
  checks_.emplace_back(name, "{\"value\": " + number(value) +
                                 ", \"max\": " + number(max) + "}");
  if (!(value <= max)) failed_.push_back(name + " (" + number(value) +
                                         " > " + number(max) + ")");
}

void Report::value(const std::string& name, double v, Better better,
                   Miss miss, double tolerance) {
  values_.emplace_back(
      name, "{\"value\": " + number(v) + ", \"better\": " +
                quoted(better == Better::kHigher ? "higher" : "lower") +
                ", \"miss\": " +
                quoted(miss == Miss::kFails ? "fails" : "warns") +
                ", \"tolerance\": " + number(tolerance) + "}");
}

int Report::finish(bool json) const {
  for (const std::string& f : failed_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (json) {
    std::printf("{\n  \"bench\": \"%s\",\n  \"config\": {%s},\n"
                "  \"host\": {%s},\n  \"checks\": {\n    %s\n  },\n"
                "  \"values\": {\n    %s\n  }\n}\n",
                bench_.c_str(), join(config_, ", ").c_str(),
                join(host_, ", ").c_str(), join(checks_, ",\n    ").c_str(),
                join(values_, ",\n    ").c_str());
  }
  return failed_.empty() ? 0 : 1;
}

ObsPool make_pool(std::uint64_t seed) {
  const auto trace =
      workload::make_trace("SDSC-SP2", kPoolWindows + 512, seed);
  const rl::ObservationBuilder builder;
  sim::SchedulingEnv env(trace.processors());
  env.reset(trace.sequence(0, kPoolWindows + 256));
  ObsPool pool;
  pool.obs.resize(kPoolWindows);
  pool.ptr.resize(kPoolWindows);
  for (std::size_t k = 0; k < kPoolWindows; ++k) {
    builder.build_into(env, pool.obs[k]);
    pool.ptr[k] = &pool.obs[k];
    env.step(0);
  }
  return pool;
}

double mean_occupancy(const ObsPool& pool) {
  double jobs = 0.0;
  for (const rl::Observation& o : pool.obs) jobs += o.count;
  return jobs / static_cast<double>(pool.obs.size());
}

Scale bench_scale() {
  // Every knob goes through the validated parser: garbage falls back to
  // the default, and values destined for std::size_t are clamped
  // non-negative so they can never wrap to huge budgets.
  Scale s;
  s.epochs = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_EPOCHS", 15, 0));
  s.trajectories = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_TRAJ", 12, 1));
  s.pi_iters = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_PI_ITERS", 10, 0));
  s.minibatch = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_MINIBATCH", 512, 0));  // 0 = full batch
  s.eval_seqs = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_EVAL_SEQS", 5, 1));
  s.eval_len = static_cast<std::size_t>(
      util::env_long("RLSCHED_BENCH_EVAL_LEN", 512, 1));
  s.seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", 42, 0));
  // One parser for the runtime knobs, shared with the façade and the serve
  // daemon: RLSCHED_WORKERS / RLSCHED_BATCH resolve in RuntimeConfig.
  const core::RuntimeConfig runtime = core::RuntimeConfig::from_env();
  s.workers = runtime.workers;
  s.batch = runtime.batch;
  s.model_dir = util::env_string("RLSCHED_MODEL_DIR", "rlsched_models");
  return s;
}

namespace {
core::RLSchedulerConfig scheduler_config(sim::Metric metric,
                                         rl::PolicyKind policy, bool filter,
                                         const Scale& scale) {
  core::RLSchedulerConfig cfg;
  cfg.metric = metric;
  cfg.policy = policy;
  cfg.trajectory_filtering = filter;
  cfg.seq_len = 256;  // paper SS V-A: 256 jobs per training trajectory
  cfg.trajectories_per_epoch = scale.trajectories;
  cfg.pi_iters = scale.pi_iters;
  cfg.v_iters = scale.pi_iters;
  cfg.minibatch = scale.minibatch;
  cfg.seed = scale.seed;
  // Deliberately NOT part of the model cache key: collection and update are
  // bitwise worker-count independent, so the trained model is the same file
  // whether 1 or 16 workers produced it. The inference batch width shares
  // that property (order-stable batched reductions — see DESIGN.md), so it
  // stays out of the key too.
  cfg.runtime.workers = scale.workers;
  cfg.runtime.batch = scale.batch;
  return cfg;
}

std::string cache_key(const std::string& trace_name, sim::Metric metric,
                      rl::PolicyKind policy, bool filter, const Scale& s) {
  std::ostringstream key;
  key << trace_name << '_' << sim::metric_name(metric) << '_';
  for (const char c : rl::policy_kind_name(policy)) {
    key << (std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
  }
  key << (filter ? "_filt" : "_nofilt") << "_e" << s.epochs << "_t"
      << s.trajectories << "_i" << s.pi_iters << "_m" << s.minibatch << "_s"
      << s.seed;
  return key.str();
}
}  // namespace

TrainedModel train_or_load(const std::string& trace_name, sim::Metric metric,
                           rl::PolicyKind policy, bool filter,
                           const Scale& scale) {
  auto trace = workload::make_trace(trace_name, 10000, scale.seed);
  TrainedModel out;
  out.scheduler = std::make_unique<core::RLScheduler>(
      trace, scheduler_config(metric, policy, filter, scale));

  const std::string key = cache_key(trace_name, metric, policy, filter, scale);
  const std::filesystem::path dir(scale.model_dir);
  const auto model_path = dir / (key + ".model.txt");
  const auto curve_path = dir / (key + ".curve.csv");

  if (std::filesystem::exists(model_path)) {
    out.scheduler->load(model_path.string());
    out.from_cache = true;
    std::ifstream curve(curve_path);
    double v = 0.0;
    while (curve >> v) out.curve.push_back(v);
    return out;
  }

  const auto history = out.scheduler->train(scale.epochs);
  for (const auto& e : history.epochs) out.curve.push_back(e.avg_metric);

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) {
    out.scheduler->save(model_path.string());
    std::ofstream curve(curve_path);
    curve << std::setprecision(10);
    for (const double v : out.curve) curve << v << '\n';
  }
  return out;
}

std::vector<std::vector<trace::Job>> eval_sequences(const trace::Trace& trace,
                                                    std::size_t n,
                                                    std::size_t len,
                                                    std::uint64_t seed) {
  util::Rng rng(seed ^ 0xEEA1ULL);
  std::vector<std::vector<trace::Job>> seqs;
  seqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back(trace.sample_sequence(rng, len));
  }
  return seqs;
}

double heuristic_value(const std::vector<trace::Job>& seq, int processors,
                       const sim::PriorityFn& priority, bool backfill,
                       sim::Metric metric, sim::PriorityKind kind) {
  sim::EnvConfig cfg;
  cfg.backfill = backfill;
  sim::SchedulingEnv env(processors, cfg);
  env.reset(seq);
  return env.run_priority(priority, kind).value(metric);
}

double heuristic_avg(const std::vector<std::vector<trace::Job>>& seqs,
                     int processors, const sim::PriorityFn& priority,
                     bool backfill, sim::Metric metric,
                     sim::PriorityKind kind) {
  double sum = 0.0;
  for (const auto& s : seqs) {
    sum += heuristic_value(s, processors, priority, backfill, metric, kind);
  }
  return seqs.empty() ? 0.0 : sum / static_cast<double>(seqs.size());
}

double rl_avg(const core::RLScheduler& model,
              const std::vector<std::vector<trace::Job>>& seqs,
              int processors, bool backfill, sim::Metric metric) {
  // Batched inference sweep (RLSCHED_BATCH windows per policy forward);
  // runs[i] is bitwise identical to a single-sequence request of seqs[i].
  core::ScheduleRequest req;
  req.sequences = &seqs;
  req.processors = processors;
  req.backfill = backfill;
  const core::StatusOr<core::ScheduleResult> result = model.schedule(req);
  double sum = 0.0;
  for (const sim::RunResult& r : result.value().runs) {
    sum += r.value(metric);
  }
  return seqs.empty() ? 0.0 : sum / static_cast<double>(seqs.size());
}

std::string cell(double v) {
  std::ostringstream out;
  if (v >= 100.0) {
    out << std::fixed << std::setprecision(0) << v;
  } else if (v >= 1.0) {
    out << std::fixed << std::setprecision(2) << v;
  } else {
    out << std::fixed << std::setprecision(3) << v;
  }
  return out.str();
}

int run_training_curves(const std::string& title, sim::Metric metric,
                        const std::vector<std::string>& traces) {
  const auto scale = bench_scale();
  util::Table table(title + " (cells: avg " + sim::metric_name(metric) +
                    " of the epoch's sampled sequences)");
  std::vector<std::string> header = {"epoch"};
  for (const auto& t : traces) header.push_back(t);
  table.set_header(header);

  std::vector<std::vector<double>> curves;
  for (const auto& t : traces) {
    curves.push_back(
        train_or_load(t, metric, rl::PolicyKind::Kernel, false, scale).curve);
  }
  for (std::size_t e = 0; e < scale.epochs; ++e) {
    std::vector<std::string> row = {std::to_string(e)};
    for (const auto& c : curves) {
      row.push_back(e < c.size() ? cell(c[e]) : "-");
    }
    table.add_row(row);
  }
  std::cout << table << '\n';
  std::cout << "first->last epoch: ";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!curves[i].empty()) {
      std::cout << traces[i] << " " << cell(curves[i].front()) << "->"
                << cell(curves[i].back()) << "  ";
    }
  }
  std::cout << '\n';
  return 0;
}

namespace {
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Per-window gap denominator: the proved optimum when the search
/// exhausted, the admissible lower bound otherwise (the ratio is then an
/// UPPER bound on the true gap — still a safe claim).
double gap_denominator(const TraceGapStudy& g, std::size_t w) {
  const double d = g.proved[w] ? g.exact[w] : g.bound[w];
  return d > 1e-12 ? d : 1e-12;
}

double avg_gap(const TraceGapStudy& g, std::size_t h) {
  double sum = 0.0;
  for (std::size_t w = 0; w < g.exact.size(); ++w) {
    sum += g.heuristic[h][w] / gap_denominator(g, w);
  }
  return g.exact.empty() ? 0.0 : sum / static_cast<double>(g.exact.size());
}

/// `a <= b` within the gate's relative cushion of 1e-9.
bool at_most(double a, double b) {
  return a <= b + 1e-9 * (1.0 + std::fabs(b));
}

/// The solver's two contracts gate within the run: the bound sits at or
/// below the exact objective on every window, and a proved optimum at or
/// below every heuristic. Gap ratios and proved counts only warn: pruning
/// follows floating-point compares, so a compiler that contracts
/// differently can prove a different subset within the node budget.
Report gap_report(const char* bench, sched::ExactObjective objective,
                  const GapStudyConfig& cfg,
                  const std::vector<TraceGapStudy>& gaps) {
  using B = Report::Better;
  using M = Report::Miss;
  Report report(bench);
  report.config("objective", sched::exact_objective_name(objective));
  report.config("window", cfg.window);
  report.config("windows", cfg.windows);
  report.config("max_nodes", static_cast<std::size_t>(cfg.max_nodes));
  for (const TraceGapStudy& g : gaps) {
    bool admissible = true, exact = true;
    std::size_t proved = 0;
    for (std::size_t w = 0; w < g.exact.size(); ++w) {
      admissible = admissible && at_most(g.bound[w], g.exact[w]);
      proved += static_cast<std::size_t>(g.proved[w]);
      for (const std::vector<double>& h : g.heuristic) {
        exact = exact && (!g.proved[w] || at_most(g.exact[w], h[w]));
      }
    }
    report.check(g.trace + "_bound_le_exact", admissible);
    report.check(g.trace + "_exact_le_heuristics", exact);
    report.value(g.trace + "_proved", static_cast<double>(proved), B::kHigher,
                 M::kWarns, 0.0);
    for (std::size_t h = 0; h < g.heuristic_names.size(); ++h) {
      report.value(g.trace + "_" + g.heuristic_names[h] + "_gap",
                   avg_gap(g, h), B::kLower, M::kWarns);
    }
  }
  return report;
}
}  // namespace

sched::ExactObjective exact_objective_for(sim::Metric metric) {
  return metric == sim::Metric::Utilization ? sched::ExactObjective::Makespan
                                            : sched::ExactObjective::
                                                  TotalBoundedSlowdown;
}

TraceGapStudy run_gap_study(const std::string& trace_name,
                            sched::ExactObjective objective,
                            const GapStudyConfig& gap, std::uint64_t seed) {
  const auto trace = workload::make_trace(trace_name, 10000, seed);
  const int procs = trace.processors();
  const auto& pool = trace.jobs();
  const auto& heuristics = sched::all_heuristics();

  sched::ExactConfig cfg;
  cfg.window = gap.window;
  cfg.max_nodes = gap.max_nodes;
  cfg.objective = objective;
  sched::ExactWindowScheduler solver(cfg);
  solver.reserve(static_cast<std::size_t>(procs));

  TraceGapStudy out;
  out.trace = trace_name;
  for (const auto& h : heuristics) {
    out.heuristic_names.push_back(h.name);
    out.heuristic.emplace_back();
  }

  // Deterministic window generator: the substream is named by the master
  // seed and the trace, independent of evaluation order.
  util::Rng rng = util::Rng::substream(seed ^ 0x9A70ULL, fnv1a(trace_name));
  for (std::size_t w = 0; w < gap.windows; ++w) {
    sched::WindowProblem p;
    p.now = 0.0;
    p.processors = procs;
    // Contended machine: a minority of processors free now, the busy rest
    // released in staircase steps over the next few hundred seconds.
    p.free = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(procs)));
    std::int32_t busy = procs - p.free;
    double t = 0.0;
    while (busy > 0) {
      t += rng.uniform(30.0, 600.0);
      const auto r = static_cast<std::int32_t>(
          1 + rng.below(static_cast<std::uint64_t>(busy)));
      p.releases.push_back({t, r});
      busy -= r;
    }
    for (std::size_t k = 0; k < gap.window; ++k) {
      trace::Job j = pool[rng.below(pool.size())];
      j.submit_time = -rng.uniform(0.0, 600.0);  // pending for a while
      j.reset_schedule_state();
      p.jobs.push_back(j);
    }

    const auto sol = solver.solve(p);
    out.exact.push_back(sol.objective);
    out.bound.push_back(sol.bound);
    out.proved.push_back(sol.proved ? 1 : 0);
    out.nodes += sol.nodes;
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
      out.heuristic[h].push_back(
          solver.evaluate_greedy(p, heuristics[h].priority).objective);
    }
  }
  return out;
}

double exact_avg(const std::vector<std::vector<trace::Job>>& seqs,
                 int processors, bool backfill, sim::Metric metric,
                 sched::ExactObjective objective) {
  sim::EnvConfig cfg;
  cfg.backfill = backfill;
  sim::SchedulingEnv env(processors, cfg);
  sched::ExactConfig ecfg;
  ecfg.window = 8;
  ecfg.max_nodes = 20000;  // keeps the table affordable; unproved windows
                           // fall back to the budgeted incumbent
  ecfg.objective = objective;
  sched::ExactWindowPolicy policy(env, ecfg);
  double sum = 0.0;
  for (const auto& s : seqs) {
    env.reset(s);
    policy.rearm();  // fresh episode invalidates the plan's job indices
    sum += env.run_priority(policy.priority(), sched::ExactWindowPolicy::kKind)
               .value(metric);
  }
  return seqs.empty() ? 0.0 : sum / static_cast<double>(seqs.size());
}

int run_scheduling_table(const std::string& title, sim::Metric metric,
                         const std::vector<std::string>& traces,
                         const TableOptions& opts) {
  const auto scale = bench_scale();
  const auto heuristics = sched::all_heuristics();
  const bool with_gap = opts.json_bench != nullptr;
  const sched::ExactObjective objective = exact_objective_for(metric);
  const GapStudyConfig gap_cfg;

  std::vector<TraceGapStudy> gaps;
  if (with_gap) {
    for (const auto& t : traces) {
      gaps.push_back(run_gap_study(t, objective, gap_cfg, scale.seed));
    }
  }

  const Report report = with_gap ? gap_report(opts.json_bench, objective,
                                              gap_cfg, gaps)
                                 : Report("");
  if (opts.json) {
    // Machine mode is the CI perf job's path: the gap study alone, no RL
    // training and no full-sequence evaluation.
    return report.finish(true);
  }

  for (const bool backfill : {false, true}) {
    util::Table table(title + (backfill ? " - with backfilling"
                                        : " - without backfilling"));
    std::vector<std::string> header = {"Trace"};
    for (const auto& h : heuristics) header.push_back(h.name);
    if (with_gap) header.push_back("EXACT");
    header.push_back("RL");
    table.set_header(header);

    for (const auto& t : traces) {
      const auto trace = workload::make_trace(t, 10000, scale.seed);
      const auto seqs =
          eval_sequences(trace, scale.eval_seqs, scale.eval_len, scale.seed);
      std::vector<double> values;
      for (const auto& h : heuristics) {
        values.push_back(heuristic_avg(seqs, trace.processors(), h.priority,
                                       backfill, metric, h.kind));
      }
      if (with_gap) {
        values.push_back(exact_avg(seqs, trace.processors(), backfill, metric,
                                   objective));
      }
      auto model =
          train_or_load(t, metric, rl::PolicyKind::Kernel, false, scale);
      values.push_back(rl_avg(*model.scheduler, seqs, trace.processors(),
                              backfill, metric));
      std::vector<std::string> row = {t};
      for (const double v : values) row.push_back(cell(v));
      table.add_row(row);
    }
    std::cout << table << '\n';
  }
  std::cout << "protocol: " << scale.eval_seqs << " random sequences of "
            << scale.eval_len << " jobs per trace, shared across schedulers\n"
            << "(paper: 10 sequences of 1024 jobs; set RLSCHED_BENCH_EVAL_*"
               " env vars for paper scale)\n";

  if (with_gap) {
    util::Table table("Optimality gap vs exact window bound (window=" +
                      std::to_string(gap_cfg.window) + ", " +
                      std::to_string(gap_cfg.windows) +
                      " windows/trace; gap = heuristic objective / proved "
                      "optimum, / lower bound on unproved windows)");
    std::vector<std::string> header = {"Trace"};
    for (const auto& h : heuristics) header.push_back(h.name);
    header.push_back("proved");
    table.set_header(header);
    for (const auto& g : gaps) {
      std::size_t proved = 0;
      for (const int p : g.proved) proved += static_cast<std::size_t>(p);
      std::vector<std::string> row = {g.trace};
      for (std::size_t h = 0; h < g.heuristic_names.size(); ++h) {
        row.push_back(cell(avg_gap(g, h)) + "x");
      }
      row.push_back(std::to_string(proved) + "/" +
                    std::to_string(g.proved.size()));
      table.add_row(row);
    }
    std::cout << table << '\n';
    std::cout << "EXACT column above: the window planner driven through the "
                 "live env (window 8, 20k-node budget); the gap table is "
                 "solved on standalone contended windows where optimality "
                 "is provable.\n";
  }
  return report.finish(false);
}

}  // namespace rlsched::bench
