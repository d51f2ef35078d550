#include "core/rlscheduler.hpp"

namespace rlsched::core {

namespace {
rl::PPOConfig to_ppo_config(const RLSchedulerConfig& cfg) {
  // Knob precedence (explicit > env > default) collapses HERE, once — the
  // trainer below always sees concrete counts.
  const RuntimeConfig runtime = cfg.runtime.resolved();
  rl::PPOConfig p;
  p.metric = cfg.metric;
  p.policy = cfg.policy;
  p.trajectory_filtering = cfg.trajectory_filtering;
  p.composite = cfg.composite;
  p.seq_len = cfg.seq_len;
  p.trajectories_per_epoch = cfg.trajectories_per_epoch;
  p.pi_iters = cfg.pi_iters;
  p.v_iters = cfg.v_iters;
  p.minibatch = cfg.minibatch;
  p.seed = cfg.seed;
  p.n_workers = runtime.workers;
  p.batch = runtime.batch;
  return p;
}
}  // namespace

RLScheduler::RLScheduler(const trace::Trace& trace, RLSchedulerConfig cfg)
    : cfg_(std::move(cfg)),
      processors_(trace.processors()),
      trainer_(std::make_unique<rl::PPOTrainer>(trace, to_ppo_config(cfg_))) {}

RLScheduler::~RLScheduler() = default;
RLScheduler::RLScheduler(RLScheduler&&) noexcept = default;
RLScheduler& RLScheduler::operator=(RLScheduler&&) noexcept = default;

rl::TrainHistory RLScheduler::train(std::size_t epochs,
                                    const EpochCallback& on_epoch) {
  rl::TrainHistory history;
  history.epochs.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    history.epochs.push_back(trainer_->train_epoch());
    if (on_epoch) on_epoch(history.epochs.back());
  }
  return history;
}

StatusOr<ScheduleResult> RLScheduler::schedule(
    const ScheduleRequest& request) const {
  if (Status s = validate(request); !s.ok()) return s;
  if (request.deadline_seconds > 0.0) {
    return Status(StatusCode::kInvalidArgument,
                  "deadline_seconds is enforced only by serve::Daemon; "
                  "in-process schedule() runs every request to completion");
  }
  ScheduleResult out;
  try {
    if (request.jobs != nullptr) {
      const int procs =
          request.processors > 0 ? request.processors : processors_;
      out.runs.push_back(
          trainer_->evaluate(*request.jobs, procs, request.backfill));
    } else if (request.sequences != nullptr) {
      const int procs =
          request.processors > 0 ? request.processors : processors_;
      out.runs = trainer_->evaluate_batch(*request.sequences, procs,
                                          request.backfill);
    } else {
      // The stream's own cluster size by default: archive traces are
      // scheduled on the machine they were recorded on.
      const int procs = request.processors > 0 ? request.processors
                                               : request.stream->processors();
      out.runs.push_back(trainer_->evaluate_stream(
          *request.stream, procs, request.backfill, request.chunk_jobs));
    }
  } catch (const std::exception& e) {
    // The engine rejects bad input (e.g. out-of-order streamed submits,
    // unreadable shards) by throwing from depth; surface it as a status.
    return Status(StatusCode::kInvalidArgument, e.what());
  }
  return out;
}

void RLScheduler::save(const std::string& path) const { trainer_->save(path); }

void RLScheduler::load(const std::string& path) { trainer_->load(path); }

}  // namespace rlsched::core
