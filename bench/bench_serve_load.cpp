// Scheduling-as-a-service load bench: drive the serve::Daemon with
// thousands of independent sessions and measure what the session table,
// dispatcher shards, and cross-session batched inference deliver. One
// driver runs every row; a row picks three things:
//
//   transport  in process, or through a live serve::Server loopback socket
//   arrivals   a closed burst (every request submitted at once), or
//              Poisson arrivals at a rate
//   queue      unbounded, or 4·B per shard with shed-oldest admission
//
// Rows (names in the --json report; --open-loop adds the last three):
//   s<N>             closed burst, in process, N sessions
//   sock_s<N>        the first burst through the socket
//   ol_s100000       Poisson arrivals at 0.7x capacity over a 100k-session
//                    table (mostly-idle sessions must be ~free — envs
//                    attach lazily at admission)
//   sock_ol_s100000  the same arrivals through the socket
//   ov_s<N>          Poisson arrivals at 1.5x capacity into the bounded
//                    queue: must shed, with exact accounting
// Capacity is the request rate the first s<N> row measured through the
// same dispatcher count as every row.
//
// Per row:
//   dps                  decisions/sec across all sessions while the row
//                        drains
//   p50_ms / p99_ms      latency of accepted requests: closed rows from
//                        submit to completion; Poisson rows from the
//                        INTENDED arrival, so p99 includes the queueing
//                        delay a client at that offered rate sees (a closed
//                        loop can never show it: its arrivals stall with
//                        the server)
//   windows_per_forward  observation windows per batched policy forward:
//                        the host-independent signal that cross-session
//                        batching engages (checked >= B/2 on closed rows;
//                        Poisson arrivals are sparse by design)
//
// Self-checks, reported as checks (a perf number from a broken daemon is
// meaningless):
//   invariant        batch-B results bitwise equal batch-1 results
//   shard_invariant  2-dispatcher results bitwise equal 1-dispatcher results
//   wire_invariant   socket results bitwise equal in-process results
//
//   bench_serve_load [--sessions 1000,10000] [--jobs 64] [--open-loop]
//                    [--json]
//
// RLSCHED_BATCH sets B (default 8) and RLSCHED_BENCH_SEED the workload.
// Output: a human table on stderr; with --json the perf-gate report on
// stdout (docs/benchmarks.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
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

constexpr std::size_t kDispatchers = 2;
constexpr std::size_t kOpenLoopSessions = 100000;
constexpr std::size_t kOpenLoopRequests = 20000;
constexpr std::size_t kOverloadRequests = 10000;

struct Options {
  std::vector<std::size_t> sessions = {1000, 10000};
  std::size_t jobs = 64;   ///< jobs per session request
  std::size_t batch = 8;   ///< daemon batch width B
  std::uint64_t seed = 42;
  bool open_loop = false;
  bool json = false;
};

[[noreturn]] void fatal_flag(const char* what, const std::string& text) {
  std::fprintf(stderr, "FATAL: invalid %s: '%s'\n", what, text.c_str());
  std::exit(2);
}

std::size_t parse_count_or_die(const std::string& text, const char* what) {
  std::size_t v = 0;
  if (!util::parse_count(text, &v)) fatal_flag(what, text);
  return v;
}

std::vector<std::size_t> parse_size_list(const std::string& text,
                                         const char* what) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_count_or_die(item, what));
  }
  if (out.empty()) fatal_flag(what, text);
  return out;
}

/// Every numeric goes through the strict util::parse_* helpers: garbage,
/// zero, or out-of-range values are fatal, never silently defaulted.
Options parse_options(int argc, char** argv) {
  Options opt;
  opt.batch = util::env_batch("RLSCHED_BATCH", opt.batch);
  opt.seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", static_cast<long>(opt.seed), 0));
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
    } else {
      std::fprintf(stderr, "FATAL: unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

using Sequences = std::vector<std::vector<trace::Job>>;

/// Per-session job sequences, deterministic in (trace, seed): session i
/// schedules its own sampled sequence, so no two sessions share state.
Sequences session_sequences(const trace::Trace& trace, std::size_t n,
                            std::size_t jobs, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5E55ULL);
  Sequences seqs;
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

/// One row: its transport, arrival process and queue bound, plus the
/// daemon shape (the self-checks vary batch width and dispatchers).
struct Row {
  std::string name;
  std::size_t sessions = 0;  ///< request i goes to session i % sessions
  std::size_t requests = 0;  ///< and schedules seqs[i % seqs.size()]
  bool socket = false;
  double rate = 0.0;         ///< Poisson arrivals/sec; 0 = closed burst
  bool bounded = false;      ///< 4·B per-shard queue, shed-oldest
  std::size_t batch = 0;
  std::size_t dispatchers = kDispatchers;
};

struct LoadResult {
  Row row;
  std::size_t completed = 0;
  std::size_t shed = 0;       ///< kResourceExhausted completions
  std::size_t cancelled = 0;  ///< kCancelled completions
  bool accounted = false;     ///< books balance, the daemon's included
  double dps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double windows_per_forward = 0.0;
};

[[noreturn]] void die(const char* what, const core::Status& s) {
  std::fprintf(stderr, "FATAL: %s: %s\n", what, s.to_string().c_str());
  std::exit(1);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs one row on a fresh started daemon and fills `runs` (when
/// non-null) with each accepted request's RunResult for the invariance
/// checks.
LoadResult run_row(const Row& row,
                   const std::vector<std::unique_ptr<rl::Policy>>& policies,
                   const Sequences& seqs, int processors, std::uint64_t seed,
                   std::vector<sim::RunResult>* runs) {
  serve::DaemonConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = row.batch;
  cfg.dispatchers = row.dispatchers;
  if (row.bounded) {
    cfg.max_queue_depth = 4 * row.batch;
    cfg.shed_policy = serve::ShedPolicy::kShedOldest;
  }
  serve::Daemon daemon(cfg);
  std::vector<std::uint32_t> pids;
  for (const auto& p : policies) pids.push_back(daemon.register_policy(*p));
  std::unique_ptr<serve::Server> server;  // starts the daemon itself
  serve::Client client;
  if (row.socket) {
    server = std::make_unique<serve::Server>(daemon);
    if (!server->status().ok()) die("server", server->status());
    if (core::Status s = client.connect("127.0.0.1", server->port());
        !s.ok()) {
      die("connect", s);
    }
  } else {
    daemon.start();
  }

  std::vector<serve::SessionId> sessions(row.sessions);
  for (std::size_t i = 0; i < row.sessions; ++i) {
    serve::SessionConfig sc;
    sc.processors = processors;
    sc.policy = pids[i % pids.size()];
    auto sid =
        row.socket ? client.create_session(sc) : daemon.create_session(sc);
    if (!sid.ok()) die("create_session", sid.status());
    sessions[i] = sid.value();
  }

  // Intended arrival times: all at once for a closed burst, exponential
  // gaps for Poisson arrivals.
  std::vector<double> arrival(row.requests, 0.0);
  if (row.rate > 0.0) {
    util::Rng rng(seed ^ 0xA221ULL);
    double t = 0.0;
    for (double& a : arrival) {
      t += -std::log(1.0 - rng.uniform()) / row.rate;
      a = t;
    }
  }

  std::vector<double> lag(row.requests, 0.0);  ///< actual - intended submit
  std::vector<serve::Completion> done(row.requests);
  std::vector<serve::RequestId> ids(row.requests);
  const serve::DaemonStats before = daemon.stats();
  const auto t0 = std::chrono::steady_clock::now();
  // Socket completions are collected while submitting: a reader keeps the
  // server's reply stream from backing up into its write buffers at 10k+
  // completions.
  std::thread collector;
  if (row.socket) {
    collector = std::thread([&] {
      for (std::size_t n = 0; n < row.requests; ++n) {
        std::uint64_t tag = 0;
        serve::Completion c;
        const core::Status s = client.recv_completion(&tag, &c);
        if (!s.ok() || tag >= row.requests) die("recv_completion", s);
        done[tag] = std::move(c);
      }
    });
  }
  for (std::size_t i = 0; i < row.requests; ++i) {
    if (row.rate > 0.0) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(arrival[i])));
      lag[i] = std::max(0.0, seconds_since(t0) - arrival[i]);
    }
    core::ScheduleRequest req;
    req.jobs = &seqs[i % seqs.size()];
    req.backfill = true;
    const serve::SessionId sid = sessions[i % row.sessions];
    if (row.socket) {
      if (core::Status s = client.send_schedule(sid, req, i); !s.ok()) {
        die("send_schedule", s);
      }
    } else {
      // Shed-oldest never bounces the new arrival — older queued work pays.
      auto rid = daemon.submit(sid, req);
      if (!rid.ok()) die("submit", rid.status());
      ids[i] = rid.value();
    }
  }
  if (row.socket) {
    collector.join();
  } else {
    for (std::size_t i = 0; i < row.requests; ++i) {
      if (core::Status s = daemon.wait(ids[i], &done[i]); !s.ok()) {
        die("wait", s);
      }
    }
  }
  const double elapsed = seconds_since(t0);
  const serve::DaemonStats after = daemon.stats();

  LoadResult out;
  out.row = row;
  std::vector<double> latencies;  ///< accepted requests only
  latencies.reserve(row.requests);
  if (runs != nullptr) runs->assign(row.requests, sim::RunResult{});
  for (std::size_t i = 0; i < row.requests; ++i) {
    const serve::Completion& c = done[i];
    if (c.status.ok()) {
      ++out.completed;
      latencies.push_back(lag[i] + c.latency_seconds);
      if (runs != nullptr) (*runs)[i] = c.result.run();
    } else if (c.status.code() == core::StatusCode::kResourceExhausted) {
      ++out.shed;
    } else if (c.status.code() == core::StatusCode::kCancelled) {
      ++out.cancelled;
    } else {
      die("completion", c.status);
    }
  }
  // The daemon's own books must agree with what the bench observed.
  out.accounted =
      out.completed + out.shed + out.cancelled == row.requests &&
      after.requests_completed - before.requests_completed == out.completed &&
      after.requests_shed - before.requests_shed == out.shed &&
      after.requests_cancelled - before.requests_cancelled == out.cancelled;

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

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto trace = workload::make_trace(
      "Lublin-1", std::max<std::size_t>(4000, 4 * opt.jobs), opt.seed);
  const int procs = trace.processors();
  const auto policies = make_policies(kDispatchers, opt.seed);
  const auto sequences = [&](std::size_t n) {
    return session_sequences(trace, n, opt.jobs, opt.seed);
  };
  const auto run = [&](const Row& row, const Sequences& seqs,
                       std::vector<sim::RunResult>* runs) {
    return run_row(row, policies, seqs, procs, opt.seed, runs);
  };

  // --- self-checks at reduced scale ---
  const std::size_t n = std::min<std::size_t>(
      256, *std::min_element(opt.sessions.begin(), opt.sessions.end()));
  const Sequences check_seqs = sequences(n);
  const auto check_runs = [&](bool socket, std::size_t batch,
                              std::size_t dispatchers) {
    std::vector<sim::RunResult> runs;
    run({.name = "check", .sessions = n, .requests = n, .socket = socket,
         .batch = batch, .dispatchers = dispatchers},
        check_seqs, &runs);
    return runs;
  };
  const auto batched = check_runs(false, opt.batch, kDispatchers);
  const bool invariant =
      bitwise_runs_equal(batched, check_runs(false, 1, kDispatchers));
  const bool shard_invariant =
      bitwise_runs_equal(batched, check_runs(false, opt.batch, 1));
  const bool wire_invariant =
      bitwise_runs_equal(batched, check_runs(true, opt.batch, kDispatchers));

  std::fprintf(stderr,
               "serve load: trace Lublin-1, %zu jobs/session, batch %zu, %zu "
               "dispatchers, seed %llu; invariance over %zu sessions: "
               "batch %s, shard %s, wire %s\n",
               opt.jobs, opt.batch, kDispatchers,
               static_cast<unsigned long long>(opt.seed), n,
               invariant ? "OK" : "VIOLATED",
               shard_invariant ? "OK" : "VIOLATED",
               wire_invariant ? "OK" : "VIOLATED");
  std::fprintf(stderr, "%-16s %9s %10s %14s %12s %12s %10s\n", "row",
               "sessions", "requests", "dec/s", "p50 ms", "p99 ms",
               "win/fwd");

  std::vector<LoadResult> results;
  const auto measure = [&](const Row& row, const Sequences& seqs) {
    const LoadResult& r = results.emplace_back(run(row, seqs, nullptr));
    std::fprintf(stderr, "%-16s %9zu %10zu %14.0f %12.3f %12.3f %10.2f\n",
                 row.name.c_str(), row.sessions, row.requests, r.dps,
                 r.p50_ms, r.p99_ms, r.windows_per_forward);
    if (row.bounded) {
      std::fprintf(stderr,
                   "%-16s overload accounting: %zu ok + %zu shed + %zu "
                   "cancelled == %zu offered\n",
                   row.name.c_str(), r.completed, r.shed, r.cancelled,
                   row.requests);
    }
  };
  const std::size_t first = opt.sessions.front();
  for (const std::size_t s : opt.sessions) {
    measure({.name = "s" + std::to_string(s), .sessions = s, .requests = s,
             .batch = opt.batch},
            sequences(s));
  }
  measure({.name = "sock_s" + std::to_string(first), .sessions = first,
           .requests = first, .socket = true, .batch = opt.batch},
          sequences(first));
  if (opt.open_loop) {
    // 0.7x capacity keeps an open queue loaded but stable (above 1.0x it
    // grows without bound and p99 measures the runway, not the daemon);
    // 1.5x must overload the bounded queue. A shared pool of sequences
    // keeps the 100k-session table affordable: these rows measure
    // session-table and queueing behaviour, not sampling memory.
    const double capacity =
        results.front().dps / static_cast<double>(opt.jobs);
    const Sequences pool = sequences(256);
    const std::string ol = "ol_s" + std::to_string(kOpenLoopSessions);
    measure({.name = ol, .sessions = kOpenLoopSessions,
             .requests = kOpenLoopRequests, .rate = 0.7 * capacity,
             .batch = opt.batch},
            pool);
    measure({.name = "sock_" + ol, .sessions = kOpenLoopSessions,
             .requests = kOpenLoopRequests, .socket = true,
             .rate = 0.7 * capacity, .batch = opt.batch},
            pool);
    measure({.name = "ov_s" + std::to_string(first), .sessions = first,
             .requests = kOverloadRequests, .rate = 1.5 * capacity,
             .bounded = true, .batch = opt.batch},
            pool);
  }

  // Absolute decisions/sec and p99 only warn, except on the bounded row:
  // only an unbounded queue makes overload p99 grow with the run length,
  // so a band 4x the warn band separates that failure from a slow host.
  using B = bench::Report::Better;
  using M = bench::Report::Miss;
  constexpr double kOverloadBand = (1.0 + bench::Report::kTolerance) * 4.0 - 1.0;
  bench::Report report("bench_serve_load");
  report.config("batch", opt.batch);
  report.config("jobs", opt.jobs);
  report.config("dispatchers", kDispatchers);
  report.check("invariant", invariant);
  report.check("shard_invariant", shard_invariant);
  report.check("wire_invariant", wire_invariant);
  for (const LoadResult& r : results) {
    const std::string& name = r.row.name;
    report.check(name + "_accounting", r.accounted);
    if (r.row.rate == 0.0) {
      report.check_at_least(name + "_windows_per_forward",
                            r.windows_per_forward,
                            static_cast<double>(opt.batch) / 2.0);
    }
    report.value(name + "_dps", r.dps, B::kHigher, M::kWarns);
    if (r.row.bounded) {
      report.check_at_least(name + "_shed", static_cast<double>(r.shed), 1.0);
      report.value(name + "_p99_ms", r.p99_ms, B::kLower, M::kFails,
                   kOverloadBand);
    } else {
      report.value(name + "_p99_ms", r.p99_ms, B::kLower, M::kWarns);
    }
  }
  return report.finish(opt.json);
}
