// `serve`: the daemon behind its socket. serve::Server (2 dispatchers,
// batch 8, 2 event threads) with 10k sessions over loopback; one pipelined
// serve::Client with one sender and one collector thread; requests are
// 64-job Lublin-1 sequences. Three phases share the measured time, 25%,
// 15% and 60% of it:
//
//   low     open-loop Poisson arrivals at a FIXED 2000 req/s — sparse
//           batches, so per-request overhead in wire/server/client shows;
//   high    open loop at a fixed 3000 req/s: busy, yet below the capacity
//           the closed loop reaches even while another tenant slows the
//           host, so the backlog never grows without bound;
//   closed  256 callers that each wait for their reply before sending the
//           next request: the server's capacity, set by its two busy
//           dispatchers, with denser batches (4.5-7 windows per forward).
//
// Fixed rates keep the offered load the same on every commit; open-loop
// latency is timed from each request's INTENDED send time, so a stalled
// generator shows up as latency, and the generator's own lag is reported.
//
// open_loop and closed_loop follow bench/bench_serve_load.cpp's
// run_open_loop and run_closed_socket. The copy is on purpose: the load
// generator belongs to the benchmark, which must stay the same while the
// code under test changes, so it does not link code that the serving
// microbenchmark (and ROADMAP item 3's collapse of its five drivers) may
// rewrite. Adopting the collapsed driver here is a benchmark-only change.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "e2e.hpp"
#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace e2e {

using namespace rlsched;

namespace {

constexpr std::size_t kJobs = 64;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kDispatchers = 2;
constexpr std::size_t kEventThreads = 2;
/// The kernel weights are the same on every run; the seed changes only the
/// jobs and the arrival times.
constexpr std::uint64_t kPolicySeed = 42;

struct ServeScale {
  std::size_t sessions = 10000;
  std::size_t pool = 256;
  std::size_t callers = 256;
  double low_rps = 2000.0;
  double high_rps = 3000.0;
  double warmup_s = 0.3;
};

[[noreturn]] void die(const char* what, const core::Status& s) {
  std::fprintf(stderr, "rlsched_e2e serve: %s: %s\n", what,
               s.to_string().c_str());
  std::exit(1);
}

/// Everything one set-up builds. Members are destroyed in reverse order:
/// the client disconnects before the server stops, and the daemon goes
/// before the policies it borrows.
struct Rig {
  std::vector<std::unique_ptr<rl::Policy>> policies;
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::Server> server;
  serve::Client client;
  std::vector<serve::SessionId> sessions;
};

/// Identically-seeded kernel policy: one per dispatcher shard, plus the
/// reference copy for the in-process batch-1 check.
std::unique_ptr<rl::Policy> make_policy() {
  util::Rng rng(kPolicySeed);
  return rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
}

std::unique_ptr<Rig> build_rig(const ServeScale& scale, int processors) {
  auto rig = std::make_unique<Rig>();
  serve::DaemonConfig dc;
  dc.runtime.workers = 1;
  dc.runtime.batch = kBatch;
  dc.dispatchers = kDispatchers;
  rig->daemon = std::make_unique<serve::Daemon>(dc);
  std::vector<std::uint32_t> pids;
  for (std::size_t d = 0; d < kDispatchers; ++d) {
    rig->policies.push_back(make_policy());
    pids.push_back(rig->daemon->register_policy(*rig->policies.back()));
  }
  serve::ServerConfig sc;
  sc.event_threads = kEventThreads;
  rig->server = std::make_unique<serve::Server>(*rig->daemon, sc);
  if (!rig->server->status().ok()) die("server", rig->server->status());
  if (core::Status s = rig->client.connect("127.0.0.1", rig->server->port());
      !s.ok()) {
    die("connect", s);
  }
  for (std::size_t i = 0; i < scale.sessions; ++i) {
    serve::SessionConfig cfg;
    cfg.processors = processors;
    cfg.policy = pids[i % pids.size()];
    auto sid = rig->client.create_session(cfg);
    if (!sid.ok()) die("create_session", sid.status());
    rig->sessions.push_back(sid.value());
  }
  return rig;
}

/// Inputs shared by every phase: the request pool and its reference
/// results from an in-process batch-1 run.
struct Inputs {
  std::vector<std::vector<trace::Job>> pool;
  std::vector<sim::RunResult> reference;
};

/// Per-request records of one phase, indexed by tag.
struct Phase {
  std::vector<std::int64_t> origin_ns;  ///< intended (open) or actual send
  std::vector<double> lag_s, send_s, service_s, latency_s;
  std::vector<std::uint8_t> ok, match;
  std::int64_t start_ns = 0;
  /// Closed loop: completions per second in each slice of the window.
  std::vector<double> slice_rps;
  serve::DaemonStats before, after;

  std::size_t sent() const { return origin_ns.size(); }
  /// Size every record up front: the open loop's two threads then write
  /// disjoint elements of vectors that never reallocate.
  void resize(std::size_t n) {
    origin_ns.resize(n);
    lag_s.assign(n, 0.0);
    send_s.assign(n, 0.0);
    service_s.assign(n, 0.0);
    latency_s.assign(n, 0.0);
    ok.assign(n, 0);
    match.assign(n, 0);
  }
  /// Append one request record (single-threaded closed loop).
  std::size_t add(std::int64_t origin) {
    origin_ns.push_back(origin);
    lag_s.push_back(0.0);
    send_s.push_back(0.0);
    service_s.push_back(0.0);
    latency_s.push_back(0.0);
    ok.push_back(0);
    match.push_back(0);
    return origin_ns.size() - 1;
  }
  std::vector<double> ok_values(const std::vector<double>& v) const {
    std::vector<double> out;
    out.reserve(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (ok[i] != 0) out.push_back(v[i]);
    }
    return out;
  }
  std::size_t failed() const {
    std::size_t f = 0;
    for (const std::uint8_t o : ok) f += o == 0 ? 1 : 0;
    return f;
  }
  std::size_t mismatched() const {
    std::size_t m = 0;
    for (std::size_t i = 0; i < ok.size(); ++i) {
      m += ok[i] != 0 && match[i] == 0 ? 1 : 0;
    }
    return m;
  }
  double windows_per_forward() const {
    const auto fwd = after.forwards - before.forwards;
    return fwd > 0 ? static_cast<double>(after.forward_windows -
                                         before.forward_windows) /
                         static_cast<double>(fwd)
                   : 0.0;
  }
  bool books_balance() const {
    return after.requests_submitted - before.requests_submitted == sent() &&
           after.requests_completed - before.requests_completed == sent();
  }
};

core::ScheduleRequest request_for(const Inputs& in, std::size_t tag) {
  core::ScheduleRequest req;
  req.jobs = &in.pool[tag % in.pool.size()];
  req.backfill = true;
  return req;
}

void receive(Rig& rig, const Inputs& in, Phase& p, Tracer* t,
             std::uint32_t st_request) {
  std::uint64_t tag = 0;
  serve::Completion c;
  if (core::Status s = rig.client.recv_completion(&tag, &c); !s.ok()) {
    die("recv_completion", s);
  }
  const std::int64_t now = now_ns();
  if (tag >= p.sent()) {
    die("recv_completion",
        core::Status(core::StatusCode::kInternal, "unknown tag"));
  }
  p.latency_s[tag] = static_cast<double>(now - p.origin_ns[tag]) * 1e-9;
  p.service_s[tag] = c.latency_seconds;
  p.ok[tag] = c.status.ok() ? 1 : 0;
  p.match[tag] = c.status.ok() &&
                 sim::bitwise_equal(c.result.run(),
                                    in.reference[tag % in.pool.size()]);
  if (t != nullptr) t->span(st_request, tag, p.origin_ns[tag], now);
}

void send(Rig& rig, const Inputs& in, Phase& p, std::size_t tag, Tracer* t,
          std::uint32_t st_send) {
  const core::ScheduleRequest req = request_for(in, tag);
  const std::int64_t s0 = now_ns();
  {
    Scope s(t, st_send, tag);
    if (core::Status st = rig.client.send_schedule(
            rig.sessions[tag % rig.sessions.size()], req, tag);
        !st.ok()) {
      die("send_schedule", st);
    }
  }
  p.send_s[tag] = seconds_since(s0);
}

/// Open loop: Poisson arrivals at `rate` for `duration_s`, pre-drawn from
/// `seed`. The calling thread sends; a collector thread receives.
Phase open_loop(Rig& rig, const Inputs& in, double rate, double duration_s,
                std::uint64_t seed, Tracer* sender_t, Tracer* collector_t) {
  util::Rng rng(seed);
  std::vector<std::int64_t> offset_ns;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t > duration_s) break;
    offset_ns.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  Phase p;
  p.resize(offset_ns.size());
  const std::uint32_t st_send =
      sender_t != nullptr ? sender_t->stage("serve.client.send") : 0;
  const std::uint32_t st_request =
      collector_t != nullptr ? collector_t->stage("serve.request") : 0;

  p.before = rig.daemon->stats();
  p.start_ns = now_ns() + 1000000;  // 1 ms head start for the collector
  for (std::size_t i = 0; i < offset_ns.size(); ++i) {
    p.origin_ns[i] = p.start_ns + offset_ns[i];
  }
  std::thread collector([&] {
    for (std::size_t i = 0; i < p.sent(); ++i) {
      receive(rig, in, p, collector_t, st_request);
    }
  });
  for (std::size_t i = 0; i < p.sent(); ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(p.origin_ns[i])));
    p.lag_s[i] = seconds_since(p.origin_ns[i]);
    send(rig, in, p, i, sender_t, st_send);
  }
  collector.join();
  p.after = rig.daemon->stats();
  return p;
}

/// Closed loop: `callers` requests in flight; each reply releases the
/// next request until `duration_s` has passed, then the rest drain. The
/// calling thread both sends and receives. Completions are counted per
/// slice of about kSliceS: capacity is the fastest slice, the highest rate
/// the server held that long. The two dispatchers set the pace: each is
/// busy nearly all the time, the client and event threads about a tenth.
/// Within one run, slices moved between about 4.5k and 9k req/s as the
/// host slowed the dispatchers' CPUs and batches thinned. So, as
/// CpuRotation does for the single-threaded workloads, every slice moves
/// the dispatchers to the next pair of CPUs; they are found as the
/// process's busiest threads. The host only lowers a slice; replies that
/// bunch up behind a stalled client can raise one by at most the
/// `callers` in flight.
Phase closed_loop(Rig& rig, const Inputs& in, std::size_t callers,
                  double duration_s) {
  constexpr double kSliceS = 0.5;
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(duration_s / kSliceS)));
  const double slice_s = duration_s / static_cast<double>(slices);
  std::vector<std::size_t> done(slices, 0);
  const CpuRotation cpus;
  const std::vector<int> dispatchers = busiest_threads(kDispatchers);
  const auto place = [&](std::size_t slice) {
    for (std::size_t i = 0; i < dispatchers.size(); ++i) {
      cpus.pin(slice + i * cpus.cpu_count() / dispatchers.size(),
               dispatchers[i]);
    }
  };
  std::size_t placed = 0;
  place(placed);
  Phase p;
  p.before = rig.daemon->stats();
  p.start_ns = now_ns();
  const std::int64_t deadline =
      p.start_ns + static_cast<std::int64_t>(duration_s * 1e9);
  const auto send_next = [&] {
    send(rig, in, p, p.add(now_ns()), nullptr, 0);
  };
  for (std::size_t i = 0; i < callers; ++i) send_next();
  for (std::size_t received = 0; received < p.sent(); ++received) {
    receive(rig, in, p, nullptr, 0);
    const std::int64_t now = now_ns();
    if (now <= deadline) {
      const auto slice = static_cast<std::size_t>(
          static_cast<double>(now - p.start_ns) * 1e-9 / slice_s);
      ++done[std::min(slices - 1, slice)];
      if (slice < slices && slice != placed) place(placed = slice);
      send_next();
    }
  }
  for (const int tid : dispatchers) cpus.release(tid);
  p.after = rig.daemon->stats();
  for (const std::size_t d : done) {
    p.slice_rps.push_back(static_cast<double>(d) / slice_s);
  }
  return p;
}

void phase_details(Report& r, const std::string& name, const Phase& p) {
  const auto lat = p.ok_values(p.latency_s);
  r.detail(name + ".requests", static_cast<double>(p.sent()));
  r.detail(name + ".p50_ms", percentile(lat, 0.50) * 1e3);
  r.detail(name + ".p99_ms", percentile(lat, 0.99) * 1e3);
  r.detail(name + ".generator_lag_p99_ms", percentile(p.lag_s, 0.99) * 1e3);
  r.detail(name + ".service_p50_ms",
           percentile(p.ok_values(p.service_s), 0.50) * 1e3);
  r.detail(name + ".service_p99_ms",
           percentile(p.ok_values(p.service_s), 0.99) * 1e3);
  r.detail(name + ".send_p50_us", percentile(p.send_s, 0.50) * 1e6);
  r.detail(name + ".windows_per_forward", p.windows_per_forward());
  r.detail(name + ".decisions",
           static_cast<double>(p.after.decisions - p.before.decisions));
}

}  // namespace

int run_serve(const Options& opt, Report& r) {
  ServeScale scale;
  if (opt.smoke) {
    scale.sessions = 200;
    scale.pool = 32;
    scale.callers = 32;
    scale.low_rps = 500.0;
    scale.high_rps = 1000.0;
    scale.warmup_s = 0.05;
  }
  r.set_config("trace", json_string("Lublin-1"));
  r.set_config("workers", "1");
  r.set_config("batch", std::to_string(kBatch));
  r.set_config("dispatchers", std::to_string(kDispatchers));
  r.set_config("event_threads", std::to_string(kEventThreads));
  r.set_config("sessions", std::to_string(scale.sessions));
  r.set_config("jobs_per_request", std::to_string(kJobs));
  r.set_config("low_rps", std::to_string(scale.low_rps));
  r.set_config("high_rps", std::to_string(scale.high_rps));
  r.set_config("callers", std::to_string(scale.callers));

  const auto trace =
      workload::make_trace("Lublin-1", scale.pool * kJobs, opt.seed);
  Inputs in;
  for (std::size_t i = 0; i < scale.pool; ++i) {
    in.pool.push_back(trace.sequence(i * kJobs, kJobs));
  }
  {
    const auto policy = make_policy();
    rl::BatchedEvaluator serial(*policy, 1);
    in.reference.resize(in.pool.size());
    serial.evaluate(in.pool, trace.processors(), true, in.reference.data());
  }

  // Set-up: daemon, server, client, sessions, and a short closed-loop
  // warm-up that fills the env pool and the socket buffers.
  std::unique_ptr<Rig> rig;
  std::size_t warmup_failed = 0;
  const auto setup = [&] {
    rig = build_rig(scale, trace.processors());
    const Phase warm = closed_loop(*rig, in, scale.callers, scale.warmup_s);
    warmup_failed += warm.failed() + warm.mismatched();
  };
  const double first_setup_s = timed(setup);

  const std::uint64_t arrivals_seed = opt.seed ^ 0xA221ULL;
  std::size_t mismatched = 0;
  bool books = true;
  const auto account = [&](const std::string& name, const Phase& p) {
    r.attempted += p.sent();
    r.failed += p.failed();
    mismatched += p.mismatched();
    books = books && p.books_balance();
    phase_details(r, name, p);
  };
  const auto check_all = [&] {
    r.check("warmup_ok", warmup_failed == 0);
    r.check("results_equal_batch1_inprocess", mismatched == 0);
    r.check("daemon_books_balance", books);
  };

  // The low-rate phase, 25% of the time. A traced run splits it into
  // slices that alternate untraced and traced (measure_units), so both
  // kinds see the same host conditions. A traced request's latency splits
  // into generator lag, time inside send_schedule, the daemon's
  // submit-to-completion time, and the remainder (wire, server threads,
  // reply delivery).
  Tracer sender_t(kSpanCap), collector_t(kSpanCap);
  std::vector<double> low_lat, traced_lat;
  double lag = 0.0, snd = 0.0, service = 0.0, total = 0.0;
  std::uint64_t forwards = 0, windows = 0;
  const auto low_slice = [&](const std::string& name, double seconds,
                             std::uint64_t seed, bool traced) {
    const Phase p =
        open_loop(*rig, in, scale.low_rps, seconds, seed,
                  traced ? &sender_t : nullptr, traced ? &collector_t : nullptr);
    account(name, p);
    std::vector<double>& lat = traced ? traced_lat : low_lat;
    for (const double x : p.ok_values(p.latency_s)) lat.push_back(x);
    if (!traced) return;
    for (std::size_t i = 0; i < p.sent(); ++i) {
      if (p.ok[i] == 0) continue;
      lag += p.lag_s[i];
      snd += p.send_s[i];
      service += p.service_s[i];
      total += p.latency_s[i];
    }
    forwards += p.after.forwards - p.before.forwards;
    windows += p.after.forward_windows - p.before.forward_windows;
  };
  if (!opt.traced()) {
    low_slice("low", 0.25 * opt.seconds, arrivals_seed, false);
  } else {
    Options low_opt = opt;
    low_opt.seconds = 0.25 * opt.seconds;
    measure_units(low_opt, 2, [&](std::size_t slot, bool traced) {
      low_slice((traced ? "low_traced" : "low") + std::to_string(slot),
                0.05 * opt.seconds, arrivals_seed + 2 * slot + (traced ? 1 : 0),
                traced);
    });
  }
  const Phase high = open_loop(*rig, in, scale.high_rps, 0.15 * opt.seconds,
                               arrivals_seed ^ 0xF00DULL, nullptr, nullptr);
  account("high", high);
  const Phase closed =
      closed_loop(*rig, in, scale.callers, 0.60 * opt.seconds);
  account("closed", closed);
  check_all();

  if (!opt.traced()) {
    const double capacity_rps = *std::max_element(closed.slice_rps.begin(),
                                                  closed.slice_rps.end());
    r.detail("capacity_rps", capacity_rps);
    r.detail_list("closed.slice_rps", closed.slice_rps);
    r.metric("jobs_per_s", capacity_rps * static_cast<double>(kJobs),
             "jobs/s");
    r.metric("op_p50_ms", median(low_lat) * 1e3, "ms");
    report_setup_and_memory(r, first_setup_s, [&] { rig.reset(); }, setup);
    return 0;
  }
  // The transport stage is the remainder of the latency, so the stages
  // cover it by construction: there is nothing to reconcile.
  layer_shares(r,
               {{"serve.lag_frac", lag},
                {"serve.client.send_frac", snd},
                {"serve.daemon.service_frac", service},
                {"serve.transport_frac", total - lag - snd - service}},
               total, median(traced_lat), median(low_lat),
               /*reconciles=*/false);
  r.metric("serve.daemon.windows_per_forward",
           forwards > 0 ? static_cast<double>(windows) /
                              static_cast<double>(forwards)
                        : 0.0,
           "windows/fwd");
  r.metric("serve.daemon.windows_per_forward_closed",
           closed.windows_per_forward(), "windows/fwd");
  span_details(r, {&sender_t, &collector_t});
  r.check("trace_file_written",
          write_trace_file(opt.trace_file, {&sender_t, &collector_t}));
  return 0;
}

}  // namespace e2e
