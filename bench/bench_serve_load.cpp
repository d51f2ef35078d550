// Scheduling-as-a-service load bench: drive the serve::Daemon — in process
// and over loopback sockets through serve::Server, same harness — with
// thousands of independent sessions and measure what the session table,
// dispatcher shards, and cross-session batched inference deliver:
//
//   dps                  aggregate scheduling decisions/sec across all
//                        sessions while the burst (or arrival window) drains
//   p50_ms / p99_ms      request latency percentiles. Closed-loop rows
//                        measure submit-to-completion over the burst;
//                        open-loop rows measure INTENDED-ARRIVAL-to-
//                        completion under Poisson arrivals, so p99 includes
//                        the queueing delay a client at that offered rate
//                        actually sees (a closed loop can never show it:
//                        its arrival process stalls with the server)
//   windows_per_forward  average observation windows packed per batched
//                        policy forward: the algorithmic, host-independent
//                        signal that cross-session batching engages (the
//                        CI gate requires >= batch/2 on closed-loop rows;
//                        open-loop arrivals are sparse by design and carry
//                        no floor)
//
// Rows ("metrics" keys in --json, gated by scripts/perf_gate.py):
//   s<N>            closed-loop burst, in-process, N sessions
//   sock_s<N>       the same burst through a live serve::Server socket
//   ol_s<N>         open-loop Poisson arrivals over an N-session table
//                   (the 100k point: mostly-idle sessions must be ~free —
//                   envs attach lazily at admission)
//   sock_ol_s<N>    open-loop arrivals through the socket
//   ov_s<N>         arrivals at 1.5x the capacity of a closed burst
//                   through the same dispatcher count, into a bounded
//                   shed-oldest queue: must shed, with exact accounting
//
// Self-checks before timing (a perf number from a broken daemon is
// meaningless) — all three report as booleans in --json and any violation
// exits nonzero:
//   invariant        batch-B results bitwise equal batch-1 serial results
//   shard_invariant  N-dispatcher sharded daemon bitwise equals the
//                    single-dispatcher daemon on the same requests
//   wire_invariant   socket results bitwise equal in-process results
//
// Configuration, runner-style: defaults < --config FILE (flat JSON) < CLI
// flags, every numeric through the strict util::parse_* helpers (garbage,
// zero, or out-of-range values are fatal, never silently defaulted):
//
//   bench_serve_load --sessions 1000,10000 --jobs 64 --batch 8 \
//                    --dispatchers 2 --transport both --open-loop \
//                    --ol-sessions 100000 --ol-requests 20000 --rate 0 \
//                    --seed 42 --trace Lublin-1 [--json] [--config f.json]
//
// --rate is offered arrivals/sec for the open-loop rows; 0 = auto-derive
// ~0.7x the measured closed-loop capacity so the queue is loaded but
// stable. Output: a human table on stderr; with --json a machine block on
// stdout for scripts/perf_gate.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "sim/env.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rlsched;

struct Options {
  std::vector<std::size_t> sessions = {1000, 10000};
  std::size_t jobs = 64;         ///< jobs per session request
  std::size_t batch = 8;         ///< daemon batch width B
  std::size_t dispatchers = 2;   ///< shards for socket/open-loop rows
  std::uint64_t seed = 42;
  std::string trace = "Lublin-1";
  std::string transport = "both";  ///< inproc | socket | both
  bool open_loop = false;
  std::size_t ol_sessions = 100000;
  std::size_t ol_requests = 20000;
  double rate = 0.0;  ///< offered arrivals/sec; 0 = auto (~0.7x capacity)
  bool json = false;
};

[[noreturn]] void fatal_flag(const char* what, const std::string& text) {
  std::fprintf(stderr, "FATAL: invalid %s: '%s'\n", what, text.c_str());
  std::exit(2);
}

std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const char* what) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::size_t v = 0;
    if (!util::parse_count(item, &v)) fatal_flag(what, item);
    out.push_back(v);
  }
  if (out.empty()) fatal_flag(what, text);
  return out;
}

std::size_t parse_count_or_die(const std::string& text, const char* what) {
  std::size_t v = 0;
  if (!util::parse_count(text, &v)) fatal_flag(what, text);
  return v;
}

/// Minimal flat-JSON config reader: {"sessions": [1000,10000], "jobs": 64,
/// "batch": 8, "dispatchers": 2, "seed": 42, "trace": "Lublin-1",
/// "rate": 0.5, ...}. No dependency, no nesting — exactly the
/// runner-config subset the bench documents. Numerics go through the same
/// strict parsers as the CLI: a typo in a config file is fatal, not a
/// silent default.
void load_config(const std::string& path, Options& opt) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FATAL: cannot read config %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const auto value_of = [&](const char* key) -> std::string {
    const std::string quoted = std::string("\"") + key + "\"";
    const std::size_t at = text.find(quoted);
    if (at == std::string::npos) return {};
    std::size_t start = text.find(':', at + quoted.size());
    if (start == std::string::npos) return {};
    ++start;
    while (start < text.size() && std::isspace(
        static_cast<unsigned char>(text[start]))) {
      ++start;
    }
    std::size_t end = start;
    if (start < text.size() && text[start] == '[') {
      end = text.find(']', start);
      if (end == std::string::npos) return {};
      return text.substr(start + 1, end - start - 1);
    }
    if (start < text.size() && text[start] == '"') {
      end = text.find('"', start + 1);
      if (end == std::string::npos) return {};
      return text.substr(start + 1, end - start - 1);
    }
    while (end < text.size() && text[end] != ',' && text[end] != '}' &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    return text.substr(start, end - start);
  };

  if (const std::string v = value_of("sessions"); !v.empty()) {
    opt.sessions = parse_size_list(v, "config sessions");
  }
  if (const std::string v = value_of("jobs"); !v.empty()) {
    opt.jobs = parse_count_or_die(v, "config jobs");
  }
  if (const std::string v = value_of("batch"); !v.empty()) {
    opt.batch = parse_count_or_die(v, "config batch");
  }
  if (const std::string v = value_of("dispatchers"); !v.empty()) {
    opt.dispatchers = parse_count_or_die(v, "config dispatchers");
  }
  if (const std::string v = value_of("seed"); !v.empty()) {
    opt.seed = parse_count_or_die(v, "config seed");
  }
  if (const std::string v = value_of("ol_sessions"); !v.empty()) {
    opt.ol_sessions = parse_count_or_die(v, "config ol_sessions");
  }
  if (const std::string v = value_of("ol_requests"); !v.empty()) {
    opt.ol_requests = parse_count_or_die(v, "config ol_requests");
  }
  if (const std::string v = value_of("rate"); !v.empty()) {
    if (!util::parse_double(v, &opt.rate, 0.0, 1e12)) {
      fatal_flag("config rate", v);
    }
  }
  if (const std::string v = value_of("trace"); !v.empty()) {
    opt.trace = v;
  }
  if (const std::string v = value_of("transport"); !v.empty()) {
    opt.transport = v;
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  opt.batch = util::env_batch("RLSCHED_BATCH", opt.batch);
  opt.seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", static_cast<long>(opt.seed), 0));
  // Config file first, then CLI flags override it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      load_config(argv[i + 1], opt);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "FATAL: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      opt.open_loop = true;
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      opt.sessions = parse_size_list(next(), "--sessions");
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      opt.jobs = parse_count_or_die(next(), "--jobs");
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      opt.batch = parse_count_or_die(next(), "--batch");
    } else if (std::strcmp(argv[i], "--dispatchers") == 0) {
      opt.dispatchers = parse_count_or_die(next(), "--dispatchers");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = parse_count_or_die(next(), "--seed");
    } else if (std::strcmp(argv[i], "--ol-sessions") == 0) {
      opt.ol_sessions = parse_count_or_die(next(), "--ol-sessions");
    } else if (std::strcmp(argv[i], "--ol-requests") == 0) {
      opt.ol_requests = parse_count_or_die(next(), "--ol-requests");
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      const std::string v = next();
      if (!util::parse_double(v, &opt.rate, 0.0, 1e12)) {
        fatal_flag("--rate", v);
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = next();
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      opt.transport = next();
    } else if (std::strcmp(argv[i], "--config") == 0) {
      ++i;  // consumed in the first pass
    } else {
      std::fprintf(stderr, "FATAL: unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opt.transport != "inproc" && opt.transport != "socket" &&
      opt.transport != "both") {
    fatal_flag("--transport (inproc|socket|both)", opt.transport);
  }
  return opt;
}

/// Per-session job sequences, deterministic in (trace, seed): session i
/// schedules its own sampled sequence, so no two sessions share state.
std::vector<std::vector<trace::Job>> session_sequences(
    const trace::Trace& trace, std::size_t n, std::size_t jobs,
    std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5E55ULL);
  std::vector<std::vector<trace::Job>> seqs;
  seqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seqs.push_back(trace.sample_sequence(rng, jobs));
  }
  return seqs;
}

/// Identically-seeded policy replicas: one registry id per dispatcher
/// shard (shard = policy id mod dispatchers), identical weights so every
/// assignment produces bitwise the same schedules.
std::vector<std::unique_ptr<rl::Policy>> make_policies(std::size_t n,
                                                       std::uint64_t seed) {
  std::vector<std::unique_ptr<rl::Policy>> out;
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng rng(seed ^ 0xD0E5ULL);
    out.push_back(
        rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng));
  }
  return out;
}

struct LoadResult {
  std::string name;
  std::size_t sessions = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;       ///< kResourceExhausted completions (overload)
  std::size_t cancelled = 0;  ///< kCancelled completions
  double dps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double windows_per_forward = 0.0;
  double rate_rps = 0.0;  ///< offered arrivals/sec; 0 = closed loop
};

void finish_result(LoadResult& out, std::vector<double>& latencies,
                   double elapsed, const serve::DaemonStats& before,
                   const serve::DaemonStats& after) {
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = util::percentile_sorted(latencies, 0.50) * 1e3;
  out.p99_ms = util::percentile_sorted(latencies, 0.99) * 1e3;
  const std::uint64_t decisions = after.decisions - before.decisions;
  const std::uint64_t forwards = after.forwards - before.forwards;
  const std::uint64_t windows = after.forward_windows - before.forward_windows;
  out.dps = elapsed > 0.0 ? static_cast<double>(decisions) / elapsed : 0.0;
  out.windows_per_forward =
      forwards > 0
          ? static_cast<double>(windows) / static_cast<double>(forwards)
          : 0.0;
}

[[noreturn]] void die(const char* what, const core::Status& s) {
  std::fprintf(stderr, "FATAL: %s: %s\n", what, s.to_string().c_str());
  std::exit(1);
}

/// One closed-loop burst, in process: S sessions, one request each,
/// submitted up front, drained on this thread. Fills `runs` (when
/// non-null) with each session's RunResult for the invariance checks.
LoadResult run_closed_inproc(const rl::Policy& policy, std::size_t batch,
                             const std::vector<std::vector<trace::Job>>& seqs,
                             int processors, std::vector<sim::RunResult>* runs) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  serve::Daemon daemon(cfg);
  const std::uint32_t pid = daemon.register_policy(policy);

  std::vector<serve::RequestId> requests(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pid;
    auto sid = daemon.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    core::ScheduleRequest req;
    req.jobs = &seqs[i];
    req.backfill = true;
    auto rid = daemon.submit(sid.value(), req);
    if (!rid.ok()) die("submit", rid.status());
    requests[i] = rid.value();
  }

  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();
  const auto drained = daemon.drain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!drained.ok()) die("drain", drained.status());

  LoadResult out;
  out.sessions = out.submitted = seqs.size();
  std::vector<double> latencies;
  latencies.reserve(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    serve::Completion c;
    const core::Status s = daemon.try_take(requests[i], &c);
    if (!s.ok() || !c.status.ok()) die("completion", !s.ok() ? s : c.status);
    ++out.completed;
    latencies.push_back(c.latency_seconds);
    if (runs != nullptr) runs->push_back(c.result.run());
  }
  finish_result(out, latencies, elapsed, before, daemon.stats());
  return out;
}

/// The sharded, started-daemon flavor of the closed burst: N dispatcher
/// threads, P identically-weighted policies spread across them, requests
/// resolved with wait(). Gated bitwise against the single-dispatcher run.
LoadResult run_closed_sharded(
    const std::vector<std::unique_ptr<rl::Policy>>& policies,
    std::size_t batch, std::size_t dispatchers,
    const std::vector<std::vector<trace::Job>>& seqs, int processors,
    std::vector<sim::RunResult>* runs) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  cfg.dispatchers = dispatchers;
  serve::Daemon daemon(cfg);
  std::vector<std::uint32_t> pids;
  for (const auto& p : policies) pids.push_back(daemon.register_policy(*p));
  daemon.start();

  std::vector<serve::RequestId> requests(seqs.size());
  std::vector<serve::SessionId> sessions(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pids[i % pids.size()];
    auto sid = daemon.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    sessions[i] = sid.value();
  }

  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    core::ScheduleRequest req;
    req.jobs = &seqs[i];
    req.backfill = true;
    auto rid = daemon.submit(sessions[i], req);
    if (!rid.ok()) die("submit", rid.status());
    requests[i] = rid.value();
  }
  LoadResult out;
  out.sessions = out.submitted = seqs.size();
  std::vector<double> latencies;
  latencies.reserve(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    serve::Completion c;
    const core::Status s = daemon.wait(requests[i], &c);
    if (!s.ok() || !c.status.ok()) die("wait", !s.ok() ? s : c.status);
    ++out.completed;
    latencies.push_back(c.latency_seconds);
    if (runs != nullptr) runs->push_back(c.result.run());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  finish_result(out, latencies, elapsed, before, daemon.stats());
  daemon.stop();
  return out;
}

/// The same burst through a live serve::Server loopback socket, pipelined:
/// all requests fired via send_schedule, completions collected by tag.
LoadResult run_closed_socket(
    const std::vector<std::unique_ptr<rl::Policy>>& policies,
    std::size_t batch, std::size_t dispatchers,
    const std::vector<std::vector<trace::Job>>& seqs, int processors,
    std::vector<sim::RunResult>* runs) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  cfg.dispatchers = dispatchers;
  serve::Daemon daemon(cfg);
  std::vector<std::uint32_t> pids;
  for (const auto& p : policies) pids.push_back(daemon.register_policy(*p));
  serve::Server server(daemon);
  if (!server.status().ok()) die("server", server.status());
  serve::Client client;
  if (core::Status s = client.connect("127.0.0.1", server.port()); !s.ok()) {
    die("connect", s);
  }

  std::vector<serve::SessionId> sessions(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pids[i % pids.size()];
    auto sid = client.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    sessions[i] = sid.value();
  }

  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();
  // Submit and collect concurrently: the pipelined client is one sender +
  // one reader, and a reader keeps the server's reply stream from backing
  // up into its write buffers at 10k+ completions.
  std::vector<double> latencies(seqs.size(), 0.0);
  if (runs != nullptr) runs->assign(seqs.size(), sim::RunResult{});
  std::thread collector([&] {
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      std::uint64_t tag = 0;
      serve::Completion c;
      if (core::Status s = client.recv_completion(&tag, &c); !s.ok()) {
        die("recv_completion", s);
      }
      if (!c.status.ok() || tag >= seqs.size()) die("completion", c.status);
      latencies[tag] = c.latency_seconds;
      if (runs != nullptr) (*runs)[tag] = c.result.run();
    }
  });
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    core::ScheduleRequest req;
    req.jobs = &seqs[i];
    req.backfill = true;
    if (core::Status s = client.send_schedule(sessions[i], req, i); !s.ok()) {
      die("send_schedule", s);
    }
  }
  collector.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LoadResult out;
  out.sessions = out.submitted = out.completed = seqs.size();
  finish_result(out, latencies, elapsed, before, daemon.stats());
  return out;
}

/// Open-loop Poisson arrivals over a large, mostly-idle session table.
/// `nrequests` arrivals at `rate`/sec spread round-robin over `nsessions`
/// sessions, each scheduling one of a small pool of shared sequences.
/// Latency for arrival i = (actual submit - INTENDED arrival) + the
/// daemon's submit-to-completion time: what an open-loop client at that
/// offered rate observes, queueing delay included, even when the
/// submitter itself falls behind.
LoadResult run_open_loop(
    const std::vector<std::unique_ptr<rl::Policy>>& policies,
    std::size_t batch, std::size_t dispatchers, bool socket,
    const std::vector<std::vector<trace::Job>>& seq_pool, int processors,
    std::size_t nsessions, std::size_t nrequests, double rate,
    std::uint64_t seed) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  cfg.dispatchers = dispatchers;
  serve::Daemon daemon(cfg);
  std::vector<std::uint32_t> pids;
  for (const auto& p : policies) pids.push_back(daemon.register_policy(*p));

  std::unique_ptr<serve::Server> server;
  serve::Client client;
  if (socket) {
    server = std::make_unique<serve::Server>(daemon);
    if (!server->status().ok()) die("server", server->status());
    if (core::Status s = client.connect("127.0.0.1", server->port());
        !s.ok()) {
      die("connect", s);
    }
  } else {
    daemon.start();
  }

  std::vector<serve::SessionId> sessions(nsessions);
  for (std::size_t i = 0; i < nsessions; ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pids[i % pids.size()];
    auto sid = socket ? client.create_session(sc) : daemon.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    sessions[i] = sid.value();
  }

  // Pre-draw the Poisson arrival schedule (exponential gaps).
  util::Rng rng(seed ^ 0xA221ULL);
  std::vector<double> arrival(nrequests);
  double t = 0.0;
  for (std::size_t i = 0; i < nrequests; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    arrival[i] = t;
  }

  std::vector<double> submit_lag(nrequests, 0.0);  ///< actual - intended
  std::vector<double> service(nrequests, 0.0);     ///< submit-to-complete
  std::vector<serve::RequestId> requests(socket ? 0 : nrequests);
  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();

  std::thread collector;
  if (socket) {
    collector = std::thread([&] {
      for (std::size_t i = 0; i < nrequests; ++i) {
        std::uint64_t tag = 0;
        serve::Completion c;
        if (core::Status s = client.recv_completion(&tag, &c); !s.ok()) {
          die("recv_completion", s);
        }
        if (!c.status.ok() || tag >= nrequests) die("completion", c.status);
        service[tag] = c.latency_seconds;
      }
    });
  }
  for (std::size_t i = 0; i < nrequests; ++i) {
    const auto due = t0 + std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(arrival[i]));
    std::this_thread::sleep_until(due);
    core::ScheduleRequest req;
    req.jobs = &seq_pool[i % seq_pool.size()];
    req.backfill = true;
    const serve::SessionId sid = sessions[i % nsessions];
    const double now = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    submit_lag[i] = std::max(0.0, now - arrival[i]);
    if (socket) {
      if (core::Status s = client.send_schedule(sid, req, i); !s.ok()) {
        die("send_schedule", s);
      }
    } else {
      auto rid = daemon.submit(sid, req);
      if (!rid.ok()) die("submit", rid.status());
      requests[i] = rid.value();
    }
  }
  if (socket) {
    collector.join();
  } else {
    for (std::size_t i = 0; i < nrequests; ++i) {
      serve::Completion c;
      const core::Status s = daemon.wait(requests[i], &c);
      if (!s.ok() || !c.status.ok()) die("wait", !s.ok() ? s : c.status);
      service[i] = c.latency_seconds;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LoadResult out;
  out.sessions = nsessions;
  out.submitted = out.completed = nrequests;
  out.rate_rps = rate;
  std::vector<double> latencies(nrequests);
  for (std::size_t i = 0; i < nrequests; ++i) {
    latencies[i] = submit_lag[i] + service[i];
  }
  finish_result(out, latencies, elapsed, before, daemon.stats());
  if (!socket) daemon.stop();
  return out;
}

/// The overload row: Poisson arrivals OFFERED ABOVE CAPACITY (the caller
/// passes ~1.5x the measured closed-loop rate) into a daemon with a
/// BOUNDED per-shard queue and the shed-oldest admission policy. A healthy
/// overloaded server degrades gracefully: the excess is shed as delivered
/// kResourceExhausted completions, the accepted requests see a p99 bounded
/// by the queue depth (not by the unbounded backlog an uncontrolled queue
/// would grow), and the books balance exactly:
/// completed + shed + cancelled == submitted. p50/p99 here are over
/// ACCEPTED (served-OK) requests only — the shed ones by definition got a
/// near-instant answer.
LoadResult run_overload(
    const std::vector<std::unique_ptr<rl::Policy>>& policies,
    std::size_t batch, std::size_t dispatchers,
    const std::vector<std::vector<trace::Job>>& seq_pool, int processors,
    std::size_t nsessions, std::size_t nrequests, double rate,
    std::uint64_t seed) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = batch;
  cfg.dispatchers = dispatchers;
  cfg.max_queue_depth = 4 * batch;  // per shard: the graceful-degradation knob
  cfg.shed_policy = serve::ShedPolicy::kShedOldest;
  serve::Daemon daemon(cfg);
  std::vector<std::uint32_t> pids;
  for (const auto& p : policies) pids.push_back(daemon.register_policy(*p));
  daemon.start();

  std::vector<serve::SessionId> sessions(nsessions);
  for (std::size_t i = 0; i < nsessions; ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pids[i % pids.size()];
    auto sid = daemon.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    sessions[i] = sid.value();
  }

  util::Rng rng(seed ^ 0x0E41ULL);
  std::vector<double> arrival(nrequests);
  double t = 0.0;
  for (std::size_t i = 0; i < nrequests; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    arrival[i] = t;
  }

  std::vector<double> submit_lag(nrequests, 0.0);
  std::vector<serve::RequestId> requests(nrequests);
  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < nrequests; ++i) {
    const auto due = t0 + std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(arrival[i]));
    std::this_thread::sleep_until(due);
    core::ScheduleRequest req;
    req.jobs = &seq_pool[i % seq_pool.size()];
    req.backfill = true;
    const double now = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    submit_lag[i] = std::max(0.0, now - arrival[i]);
    // Shed-oldest NEVER bounces the new arrival — older queued work pays.
    auto rid = daemon.submit(sessions[i % nsessions], req);
    if (!rid.ok()) die("submit", rid.status());
    requests[i] = rid.value();
  }

  LoadResult out;
  out.sessions = nsessions;
  out.submitted = nrequests;
  out.rate_rps = rate;
  std::vector<double> accepted;
  accepted.reserve(nrequests);
  for (std::size_t i = 0; i < nrequests; ++i) {
    serve::Completion c;
    const core::Status s = daemon.wait(requests[i], &c);
    if (!s.ok()) die("wait", s);
    if (c.status.ok()) {
      ++out.completed;
      accepted.push_back(submit_lag[i] + c.latency_seconds);
    } else if (c.status.code() == core::StatusCode::kResourceExhausted) {
      ++out.shed;
    } else if (c.status.code() == core::StatusCode::kCancelled) {
      ++out.cancelled;
    } else {
      die("overload completion", c.status);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  daemon.stop();
  const serve::DaemonStats after = daemon.stats();
  // The daemon's own books must agree with what the bench observed.
  if (after.requests_shed - before.requests_shed != out.shed ||
      out.completed + out.shed + out.cancelled != out.submitted) {
    std::fprintf(stderr, "FATAL: overload accounting diverged: "
                 "%zu completed + %zu shed + %zu cancelled != %zu submitted\n",
                 out.completed, out.shed, out.cancelled, out.submitted);
    std::exit(1);
  }
  finish_result(out, accepted, elapsed, before, after);
  return out;
}

bool bitwise_runs_equal(const std::vector<sim::RunResult>& a,
                        const std::vector<sim::RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sim::bitwise_equal(a[i], b[i])) return false;
  }
  return true;
}

void print_row(const LoadResult& r) {
  std::fprintf(stderr, "%-16s %9zu %10zu %14.0f %12.3f %12.3f %10.2f\n",
               r.name.c_str(), r.sessions, r.submitted, r.dps, r.p50_ms,
               r.p99_ms, r.windows_per_forward);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto trace = workload::make_trace(
      opt.trace, std::max<std::size_t>(4000, 4 * opt.jobs), opt.seed);
  const int procs = trace.processors();
  const auto policies = make_policies(std::max<std::size_t>(
      opt.dispatchers, 1), opt.seed);
  const rl::Policy& policy = *policies.front();

  // --- self-checks at reduced scale (each runs every session twice) ----
  const std::size_t check_sessions =
      std::min<std::size_t>(256, *std::min_element(opt.sessions.begin(),
                                                   opt.sessions.end()));
  const auto check_seqs = session_sequences(trace, check_sessions, opt.jobs,
                                            opt.seed);

  // 1. Cross-session batching: batch-B results == batch-1 serial results.
  std::vector<sim::RunResult> batched, serial;
  const LoadResult check_run =
      run_closed_inproc(policy, opt.batch, check_seqs, procs, &batched);
  (void)run_closed_inproc(policy, 1, check_seqs, procs, &serial);
  const bool invariant = bitwise_runs_equal(batched, serial);

  // 2. Dispatcher sharding: N shards == 1 shard, identical weights.
  std::vector<sim::RunResult> sharded, single;
  (void)run_closed_sharded(policies, opt.batch,
                           std::max<std::size_t>(opt.dispatchers, 2),
                           check_seqs, procs, &sharded);
  (void)run_closed_sharded(policies, opt.batch, 1, check_seqs, procs,
                           &single);
  const bool shard_invariant = bitwise_runs_equal(sharded, single) &&
                               bitwise_runs_equal(sharded, batched);

  // 3. Wire framing: socket results == in-process results.
  std::vector<sim::RunResult> wired;
  (void)run_closed_socket(policies, opt.batch, opt.dispatchers, check_seqs,
                          procs, &wired);
  const bool wire_invariant = bitwise_runs_equal(wired, batched);

  for (const auto& [ok, what] :
       {std::pair<bool, const char*>{invariant, "batch-B vs batch-1"},
        {shard_invariant, "N-dispatcher vs single-dispatcher"},
        {wire_invariant, "socket vs in-process"}}) {
    if (!ok) {
      std::fprintf(stderr, "FATAL: %s results diverged bitwise over %zu "
                   "sessions\n", what, check_sessions);
    }
  }
  const bool all_ok = invariant && shard_invariant && wire_invariant;
  if (!all_ok && !opt.json) return 1;

  std::fprintf(stderr,
               "serve load: trace %s, %zu jobs/session, batch %zu, %zu "
               "dispatchers, seed %llu; invariance over %zu sessions: "
               "batch %s, shard %s, wire %s\n",
               opt.trace.c_str(), opt.jobs, opt.batch, opt.dispatchers,
               static_cast<unsigned long long>(opt.seed), check_sessions,
               invariant ? "OK" : "VIOLATED",
               shard_invariant ? "OK" : "VIOLATED",
               wire_invariant ? "OK" : "VIOLATED");
  std::fprintf(stderr, "%-16s %9s %10s %14s %12s %12s %10s\n", "row",
               "sessions", "requests", "dec/s", "p50 ms", "p99 ms",
               "win/fwd");

  const bool want_inproc = opt.transport != "socket";
  const bool want_socket = opt.transport != "inproc";
  std::vector<LoadResult> results;

  if (want_inproc) {
    for (const std::size_t scale : opt.sessions) {
      const auto seqs = session_sequences(trace, scale, opt.jobs, opt.seed);
      LoadResult r = run_closed_inproc(policy, opt.batch, seqs, procs,
                                       nullptr);
      r.name = "s" + std::to_string(scale);
      print_row(r);
      results.push_back(std::move(r));
    }
  }
  if (want_socket) {
    const std::size_t scale = opt.sessions.front();
    const auto seqs = session_sequences(trace, scale, opt.jobs, opt.seed);
    LoadResult r = run_closed_socket(policies, opt.batch, opt.dispatchers,
                                     seqs, procs, nullptr);
    r.name = "sock_s" + std::to_string(scale);
    print_row(r);
    results.push_back(std::move(r));
  }

  if (opt.open_loop) {
    // Offered rate: ~0.7x the measured closed-loop request capacity keeps
    // the queue loaded but stable (above 1.0x an open-loop queue grows
    // without bound and p99 measures the runway, not the daemon).
    const double capacity_rps =
        check_run.dps / static_cast<double>(opt.jobs);
    const double rate =
        opt.rate > 0.0 ? opt.rate : 0.7 * capacity_rps;
    // A shared pool of sequences keeps the 100k-session table affordable:
    // the scale point measures session-table + queueing behavior, not
    // sampling memory.
    const std::size_t pool_n = std::min<std::size_t>(256, opt.ol_requests);
    const auto seq_pool =
        session_sequences(trace, pool_n, opt.jobs, opt.seed);
    for (const bool socket : {false, true}) {
      if (socket ? !want_socket : !want_inproc) continue;
      LoadResult r = run_open_loop(policies, opt.batch, opt.dispatchers,
                                   socket, seq_pool, procs, opt.ol_sessions,
                                   opt.ol_requests, rate, opt.seed);
      r.name = (socket ? "sock_ol_s" : "ol_s") +
               std::to_string(opt.ol_sessions);
      print_row(r);
      results.push_back(std::move(r));
    }
    if (want_inproc) {
      // Overload: offer 1.5x the measured capacity into a bounded queue
      // with shed-oldest admission. Gated on graceful degradation: sheds
      // happen (kResourceExhausted), accepted-request p99 stays bounded by
      // the queue depth, and completed + shed + cancelled == submitted.
      // The capacity comes from a closed burst through the same number of
      // started dispatchers as this row: the single-thread drain() figure
      // behind the open-loop rate undershoots a multi-dispatcher daemon,
      // and 1.5x of it can fail to overload one at all.
      const std::size_t ov_sessions = opt.sessions.front();
      const std::size_t ov_requests =
          std::min<std::size_t>(opt.ol_requests, 10000);
      const LoadResult ov_closed = run_closed_sharded(
          policies, opt.batch, opt.dispatchers,
          session_sequences(trace, ov_sessions, opt.jobs, opt.seed), procs,
          nullptr);
      const double ov_capacity_rps =
          ov_closed.dps / static_cast<double>(opt.jobs);
      LoadResult r = run_overload(policies, opt.batch, opt.dispatchers,
                                  seq_pool, procs, ov_sessions, ov_requests,
                                  1.5 * ov_capacity_rps, opt.seed);
      r.name = "ov_s" + std::to_string(ov_sessions);
      print_row(r);
      std::fprintf(stderr,
                   "%-16s overload accounting: %zu ok + %zu shed + %zu "
                   "cancelled == %zu offered\n",
                   r.name.c_str(), r.completed, r.shed, r.cancelled,
                   r.submitted);
      results.push_back(std::move(r));
    }
  }

  if (opt.json) {
    std::printf("{\n  \"bench\": \"bench_serve_load\",\n");
    std::printf("  \"batch\": %zu,\n  \"jobs\": %zu,\n  \"dispatchers\": "
                "%zu,\n", opt.batch, opt.jobs, opt.dispatchers);
    std::printf("  \"invariant\": %s,\n", invariant ? "true" : "false");
    std::printf("  \"shard_invariant\": %s,\n",
                shard_invariant ? "true" : "false");
    std::printf("  \"wire_invariant\": %s,\n",
                wire_invariant ? "true" : "false");
    std::printf("  \"metrics\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const LoadResult& r = results[i];
      std::printf(
          "    \"%s\": {\"dps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": "
          "%.4f, \"windows_per_forward\": %.3f, \"rate_rps\": %.1f, "
          "\"submitted\": %zu, \"completed\": %zu, \"shed\": %zu, "
          "\"cancelled\": %zu}%s\n",
          r.name.c_str(), r.dps, r.p50_ms, r.p99_ms, r.windows_per_forward,
          r.rate_rps, r.submitted, r.completed, r.shed, r.cancelled,
          i + 1 < results.size() ? "," : "");
    }
    std::printf("  }\n}\n");
  }
  return all_ok ? 0 : 1;
}
