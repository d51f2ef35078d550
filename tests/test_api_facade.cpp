// Public-API gate: the one schedule(const ScheduleRequest&) entry point
// must give BITWISE-identical results across its equivalent request shapes
// — a batched request equals its single-sequence requests, a streamed
// request equals the materialized one, and processors = the trace's own
// size equals the default-cluster request. Also pins the Status contract:
// malformed requests come back as kInvalidArgument (with the code name in
// to_string()) and engine rejections surface as a non-OK Status.
#include <cstdio>
#include <string>
#include <vector>

#include "core/rlscheduler.hpp"
#include "sim/env.hpp"
#include "test_util.hpp"
#include "trace/job_source.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace {
using namespace rlsched;
using core::ScheduleRequest;
using core::ScheduleResult;
using core::Status;
using core::StatusCode;
using core::StatusOr;

core::RLSchedulerConfig small_config() {
  core::RLSchedulerConfig cfg;
  cfg.seq_len = 64;
  cfg.trajectories_per_epoch = 4;
  cfg.pi_iters = 2;
  cfg.v_iters = 2;
  cfg.seed = 7;
  cfg.runtime.workers = 1;
  cfg.runtime.batch = 8;
  return cfg;
}

/// A deliberately broken source: submits go backwards, which the streaming
/// simulator rejects by throwing from depth.
class BackwardsSource final : public trace::JobSource {
 public:
  const std::string& name() const override { return name_; }
  int processors() const override { return 64; }
  std::size_t fetch(std::size_t max_jobs, std::vector<trace::Job>& out)
      override {
    std::size_t n = 0;
    for (; n < max_jobs && emitted_ < 4; ++n, ++emitted_) {
      trace::Job j;
      j.id = static_cast<std::int64_t>(emitted_);
      j.submit_time = 100.0 - 10.0 * static_cast<double>(emitted_);
      j.requested_time = 10.0;
      j.run_time = 10.0;
      j.requested_procs = 1;
      j.user = 1;
      out.push_back(j);
    }
    return n;
  }
  void rewind() override { emitted_ = 0; }

 private:
  std::string name_ = "backwards";
  std::size_t emitted_ = 0;
};
}  // namespace

int main() {
  const auto trace = workload::make_trace("SDSC-SP2", 2000, 42);
  core::RLScheduler model(trace, small_config());

  util::Rng rng(11);
  const auto seq = trace.sample_sequence(rng, 256);
  std::vector<std::vector<trace::Job>> seqs;
  for (int i = 0; i < 5; ++i) seqs.push_back(trace.sample_sequence(rng, 96));

  for (const bool backfill : {false, true}) {
    ScheduleRequest jobs_req;
    jobs_req.jobs = &seq;
    jobs_req.backfill = backfill;
    const auto via_request = model.schedule(jobs_req);
    CHECK(via_request.ok());
    CHECK(via_request.value().runs.size() == 1);

    // processors = the trace's own size matches the default-cluster
    // request.
    ScheduleRequest on_req = jobs_req;
    on_req.processors = trace.processors();
    CHECK(sim::bitwise_equal(model.schedule(on_req).value().run(),
                             via_request.value().run()));

    // Each batched run is bitwise the single-sequence run of that
    // sequence, on the default cluster and under a processors override.
    for (const int procs : {0, trace.processors() / 2}) {
      ScheduleRequest many_req;
      many_req.sequences = &seqs;
      many_req.processors = procs;
      many_req.backfill = backfill;
      const auto many = model.schedule(many_req);
      CHECK(many.ok());
      CHECK(many.value().runs.size() == seqs.size());
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        ScheduleRequest one;
        one.jobs = &seqs[i];
        one.processors = procs;
        one.backfill = backfill;
        CHECK(sim::bitwise_equal(many.value().runs[i],
                                 model.schedule(one).value().run()));
      }
    }

    // Processors default to the stream's own cluster, and the streamed run
    // is bitwise the materialized run of the same jobs.
    auto stream_trace = trace;  // Trace is a JobSource over its own jobs
    ScheduleRequest stream_req;
    stream_req.stream = &stream_trace;
    stream_req.backfill = backfill;
    stream_req.chunk_jobs = 512;
    const auto via_stream = model.schedule(stream_req);
    CHECK(via_stream.ok());
    ScheduleRequest materialized;
    materialized.jobs = &trace.jobs();
    materialized.backfill = backfill;
    CHECK(sim::bitwise_equal(via_stream.value().run(),
                             model.schedule(materialized).value().run()));
  }

  // --- Status contract ---------------------------------------------------

  // No source at all.
  {
    const auto r = model.schedule(ScheduleRequest{});
    CHECK(!r.ok());
    CHECK(r.status().code() == StatusCode::kInvalidArgument);
    CHECK(r.status().to_string().find("INVALID_ARGUMENT") !=
          std::string::npos);
  }
  // More than one source.
  {
    ScheduleRequest req;
    req.jobs = &seq;
    req.sequences = &seqs;
    CHECK(model.schedule(req).status().code() ==
          StatusCode::kInvalidArgument);
  }
  // Negative processors.
  {
    ScheduleRequest req;
    req.jobs = &seq;
    req.processors = -1;
    CHECK(model.schedule(req).status().code() ==
          StatusCode::kInvalidArgument);
  }
  // A deadline: only serve::Daemon enforces one, so in-process it is
  // refused rather than silently ignored.
  {
    ScheduleRequest req;
    req.jobs = &seq;
    req.deadline_seconds = 5.0;
    CHECK(model.schedule(req).status().code() ==
          StatusCode::kInvalidArgument);
  }
  // Streamed request with a zero chunk.
  {
    auto stream_trace = trace;
    ScheduleRequest req;
    req.stream = &stream_trace;
    req.chunk_jobs = 0;
    CHECK(model.schedule(req).status().code() ==
          StatusCode::kInvalidArgument);
  }
  // Engine rejection from depth (out-of-order streamed submits): a non-OK
  // Status, not an exception.
  {
    BackwardsSource bad;
    ScheduleRequest req;
    req.stream = &bad;
    const auto r = model.schedule(req);
    CHECK(!r.ok());
    CHECK(r.status().code() == StatusCode::kInvalidArgument);
    CHECK(!r.status().message().empty());
  }
  // StatusOr basics the façade relies on.
  {
    Status ok = Status::Ok();
    CHECK(ok.ok());
    CHECK(std::string(core::status_code_name(StatusCode::kOk)) == "OK");
    StatusOr<int> v(3);
    CHECK(v.ok());
    CHECK(v.value() == 3);
    StatusOr<int> e(Status(StatusCode::kNotFound, "nope"));
    CHECK(!e.ok());
    CHECK(e.status().code() == StatusCode::kNotFound);
    CHECK(e.status().message() == "nope");
  }

  std::puts("api facade: OK");
  return 0;
}
