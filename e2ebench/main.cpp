// rlsched_e2e — end-to-end benchmark binary.
//
//   rlsched_e2e --workload train|replay|archive|serve --seed S --seconds T
//               [--trace FILE] [--data DIR] [--smoke]
//   rlsched_e2e --prepare DIR --seed S [--smoke]
//
// Prints one JSON object on stdout: the resolved configuration, the
// correctness checks, attempted/failed operation counts and the metrics.
// Without --trace the metrics are the end-to-end ones; with --trace the
// run measures an untraced half and a traced half and reports per-layer
// shares, the tracing overhead and the reconciliation of stage times
// against the untraced figure, and writes the spans to FILE. run.py builds
// this binary and turns its output into the benchmark's result line.
//
// The binary pins its own configuration (workers, batch, dispatchers);
// no RLSCHED_* environment variable changes what it runs.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "e2e.hpp"
#include "nn/quant.hpp"
#include "nn/simd.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace e2e {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return rlsched::util::percentile_sorted(v, p);
}

std::vector<rlsched::trace::Job> what_if(const rlsched::trace::Trace& base,
                                         std::uint64_t seed) {
  rlsched::util::Rng rng(seed);
  std::vector<rlsched::trace::Job> jobs = base.jobs();
  for (rlsched::trace::Job& j : jobs) {
    j.run_time *= rng.uniform(0.95, 1.05);
    j.requested_time = std::max(j.requested_time, j.run_time);
  }
  return jobs;
}

double peak_rss_mib() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so it
  // would report the launching process's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() { release(0); }

void CpuRotation::release(int tid) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(tid, sizeof(set), &set);
}

void CpuRotation::pin(std::size_t k, int tid) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

std::vector<int> busiest_threads(std::size_t n) {
  std::vector<std::pair<long long, int>> used;  // (CPU ticks, tid)
  const int self = static_cast<int>(gettid());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(entry.path().filename().c_str());
    if (tid == self) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    std::getline(stat, line);
    // Fields after the parenthesised name: state is field 3, utime 14 and
    // stime 15 of proc(5).
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    long long ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::atoll(field.c_str());
    }
    used.emplace_back(ticks, tid);
  }
  std::sort(used.rbegin(), used.rend());
  std::vector<int> out;
  for (std::size_t i = 0; i < n && i < used.size(); ++i) {
    out.push_back(used[i].second);
  }
  return out;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(std::size_t span_cap) : cap_(span_cap) {
  spans_.reserve(cap_);
  stack_.reserve(16);
}

std::uint32_t Tracer::stage(const std::string& name) {
  for (std::uint32_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].name == name) return i;
  }
  stages_.push_back(Totals{name});
  return static_cast<std::uint32_t>(stages_.size() - 1);
}

std::uint32_t Tracer::record(std::uint32_t stage, std::uint64_t id,
                             std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return kNone;
  }
  const std::uint32_t parent = stack_.empty() ? kNone : stack_.back().index;
  spans_.push_back(Span{stage, parent, id, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t stage, std::int64_t dur_ns,
                   std::int64_t child_ns) {
  Totals& t = stages_[stage];
  t.total_s += static_cast<double>(dur_ns) * 1e-9;
  t.self_s += static_cast<double>(dur_ns - child_ns) * 1e-9;
  ++t.count;
  if (!stack_.empty()) stack_.back().child_ns += dur_ns;
}

void Tracer::begin(std::uint32_t stage, std::uint64_t id) {
  const std::int64_t start = now_ns();
  const std::uint32_t index = record(stage, id, start, start);
  stack_.push_back(Open{stage, index, start, 0});
}

void Tracer::end() {
  const std::int64_t stop = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  if (open.index != kNone) spans_[open.index].end_ns = stop;
  close(open.stage, stop - open.start_ns, open.child_ns);
}

void Tracer::span(std::uint32_t stage, std::uint64_t id, std::int64_t start_ns,
                  std::int64_t end_ns) {
  record(stage, id, start_ns, end_ns);
  close(stage, end_ns - start_ns, 0);
}

void Tracer::write_events(std::FILE* out, int tid, bool* first) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%" PRIu64 "}}",
                 *first ? "" : ",", json_string(stages_[s.stage].name).c_str(),
                 tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.id);
    *first = false;
  }
}

bool write_trace_file(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    tracers[i]->write_events(out, static_cast<int>(i + 1), &first);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

// --- Report -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Report::check(const std::string& name, bool ok) {
  checks.emplace_back(name, ok);
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
}

void Report::set_config(const std::string& key, const std::string& json_value) {
  config.emplace_back(key, json_value);
}

void Report::detail(const std::string& key, double value) {
  details.emplace_back(key, json_number(value));
}

void Report::detail_list(const std::string& key,
                         const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    text += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  details.emplace_back(key, text + "]");
}

bool Report::correct() const {
  if (checks.empty() || failed != 0 || attempted == 0) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void Report::print_json(std::FILE* out) const {
  const auto object = [out](const std::vector<std::pair<std::string,
                                                        std::string>>& kv) {
    std::fprintf(out, "{");
    for (std::size_t i = 0; i < kv.size(); ++i) {
      std::fprintf(out, "%s%s: %s", i == 0 ? "" : ", ",
                   json_string(kv[i].first).c_str(), kv[i].second.c_str());
    }
    std::fprintf(out, "}");
  };
  std::vector<std::pair<std::string, std::string>> checks_kv;
  for (const auto& [name, ok] : checks) {
    checks_kv.emplace_back(name, ok ? "true" : "false");
  }
  std::vector<std::pair<std::string, std::string>> metrics_kv;
  for (const Metric& m : metrics) {
    metrics_kv.emplace_back(m.name, "{\"value\": " + json_number(m.value) +
                                        ", \"unit\": " +
                                        json_string(m.unit) + "}");
  }
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"config\": ",
               correct() ? "true" : "false", attempted, failed);
  object(config);
  std::fprintf(out, ", \"checks\": ");
  object(checks_kv);
  std::fprintf(out, ", \"details\": ");
  object(details);
  std::fprintf(out, ", \"metrics\": ");
  object(metrics_kv);
  std::fprintf(out, "}\n");
}

void layer_shares(Report& r, const std::vector<StageTime>& stages,
                  double traced_total_s, double traced_op_s,
                  double untraced_op_s, bool reconciles) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double stage_sum_s = 0.0;
  for (const StageTime& s : stages) {
    r.metric(s.metric, ratio(s.self_s, traced_total_s), "frac");
    r.detail(s.metric + ".self_s", s.self_s);
    stage_sum_s += s.self_s;
  }
  r.metric("trace_overhead_frac", ratio(traced_op_s, untraced_op_s) - 1.0,
           "frac");
  if (reconciles) {
    const double coverage = ratio(stage_sum_s, traced_total_s);
    const double reconcile = coverage * ratio(traced_op_s, untraced_op_s);
    r.metric("reconcile_error_frac", std::fabs(reconcile - 1.0), "frac");
    r.detail("reconcile_frac", reconcile);
    r.detail("stage_coverage_frac", coverage);
  } else {
    r.metric("reconcile_error_frac", 0.0, "frac");
  }
  r.detail("traced_op_s", traced_op_s);
  r.detail("untraced_op_s", untraced_op_s);
}

void span_details(Report& r, const std::vector<const Tracer*>& tracers) {
  std::uint64_t kept = 0, dropped = 0;
  for (const Tracer* t : tracers) {
    kept += t->kept();
    dropped += t->dropped();
    for (const Tracer::Totals& tot : t->all_totals()) {
      r.detail("span." + tot.name + ".count", static_cast<double>(tot.count));
      r.detail("span." + tot.name + ".total_s", tot.total_s);
    }
  }
  r.detail("spans_kept", static_cast<double>(kept));
  r.detail("spans_dropped", static_cast<double>(dropped));
}

}  // namespace e2e

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rlsched_e2e: %s\nusage: rlsched_e2e --workload "
               "train|replay|archive|serve --seed S --seconds T [--trace "
               "FILE] [--data DIR] [--smoke]\n       rlsched_e2e --prepare "
               "DIR --seed S [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rlsched;
  e2e::Options opt;
  std::string prepare_dir;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing flag value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      opt.workload = next();
    } else if (flag == "--seed") {
      std::size_t v = 0;
      const std::string s = next();
      if (s != "0" && !util::parse_count(s, &v)) usage("bad --seed");
      opt.seed = v;
    } else if (flag == "--seconds") {
      if (!util::parse_double(next(), &opt.seconds, 0.01, 3600.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      opt.trace_file = next();
    } else if (flag == "--data") {
      opt.data_dir = next();
    } else if (flag == "--prepare") {
      prepare_dir = next();
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  try {
    if (!prepare_dir.empty()) return e2e::prepare_archive(opt, prepare_dir);

    e2e::Report r;
    r.set_config("workload", e2e::json_string(opt.workload));
    r.set_config("seed", std::to_string(opt.seed));
    r.set_config("seconds", std::to_string(opt.seconds));
    r.set_config("traced", opt.traced() ? "true" : "false");
    r.set_config("smoke", opt.smoke ? "true" : "false");
    r.set_config("simd_lanes", std::to_string(nn::kSimdLanes));
    r.set_config("quant_isa", e2e::json_string(nn::quant_isa()));
    int rc = 0;
    if (opt.workload == "train") {
      rc = e2e::run_train(opt, r);
    } else if (opt.workload == "replay") {
      rc = e2e::run_replay(opt, r);
    } else if (opt.workload == "archive") {
      if (opt.data_dir.empty()) usage("archive needs --data DIR");
      rc = e2e::run_archive(opt, r);
    } else if (opt.workload == "serve") {
      rc = e2e::run_serve(opt, r);
    } else {
      usage("unknown --workload");
    }
    r.print_json(stdout);
    return rc != 0 ? rc : (r.correct() ? 0 : 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlsched_e2e: %s\n", e.what());
    return 1;
  }
}
