#include "rl/ppo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "rl/batch_eval.hpp"

namespace rlsched::rl {

namespace {
constexpr std::size_t kMaxFilterAttempts = 25;

void write_params(std::ofstream& out, const std::vector<float>& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    out << p[i] << (i + 1 == p.size() ? '\n' : ' ');
  }
  if (p.empty()) out << '\n';
}

std::vector<std::size_t> value_net_sizes() {
  return {kJobFeatures * kMaxObservable, 32, 32, 1};
}
}  // namespace

struct PPOTrainer::Worker {
  // One lockstep LANE per batch slot: collection advances up to `batch`
  // trajectories together, so each lane owns an env, a sequence scratch,
  // and an RNG slot (re-seeded per trajectory from its substream).
  std::vector<sim::SchedulingEnv> envs;
  std::vector<std::vector<trace::Job>> seqs;
  std::vector<util::Rng> rngs;
  std::vector<std::uint32_t> alive;  ///< live lane indices, lane order

  std::unique_ptr<Policy> policy;  ///< clone: owns activation scratch
  nn::FlatMlp value_net;           ///< scratch only; params stay shared
  ObservationBuilder builder;
  sim::SchedulingEnv probe;        ///< trajectory-filter SJF rollouts

  // Batch scratch shared by collection (n <= batch lanes) and the update
  // chunks (n <= kGradChunk samples); sized once for the larger of the two.
  std::vector<const Observation*> obs_ptr;
  std::vector<float> logits;          ///< n x kMaxObservable, window-major
  std::vector<float> probs;           ///< one window, reused per sample
  std::vector<float> dlogits;         ///< chunk x kMaxObservable
  std::vector<std::uint8_t> active;   ///< per-chunk-sample clip mask
  std::vector<float> vx;              ///< value-net SoA pack (in x n)
  std::vector<float> vdout;           ///< value-net dOut (1 x n)

  Worker(int processors, const sim::EnvConfig& env_cfg, PolicyKind kind,
         std::size_t seq_len, std::size_t batch, std::size_t chunk)
      : value_net(value_net_sizes()), probe(processors) {
    // The clone's random init is irrelevant — parameters are overwritten
    // from the canonical policy before every fan-out.
    util::Rng init_rng(1);
    policy = make_policy(kind, kMaxObservable, init_rng);
    envs.reserve(batch);
    for (std::size_t k = 0; k < batch; ++k) {
      envs.emplace_back(processors, env_cfg);
    }
    seqs.resize(batch);
    for (auto& s : seqs) s.reserve(seq_len);
    rngs.assign(batch, util::Rng(0));
    alive.reserve(batch);
    const std::size_t nmax = std::max(batch, chunk);
    // Size every batch scratch NOW: growth on first use would depend on
    // which worker happens to draw the first full-size batch — an
    // allocation an epoch (or three) after warmup, which the zero-alloc
    // gates rightly reject.
    policy->reserve_batch(nmax);
    value_net.reserve_batch(nmax);
    obs_ptr.resize(nmax);
    logits.resize(nmax * kMaxObservable);
    probs.resize(kMaxObservable);
    dlogits.resize(chunk * kMaxObservable);
    active.resize(chunk);
    vx.resize(kJobFeatures * kMaxObservable * nmax);
    vdout.resize(nmax);
  }
};

PPOTrainer::PPOTrainer(const trace::Trace& trace, PPOConfig cfg)
    : trace_(trace),
      cfg_(cfg),
      batch_(cfg.batch == 0 ? 1 : cfg.batch),
      rng_(cfg.seed * 0x9E3779B97F4A7C15ULL + 0x7F4A7C15ULL),
      policy_(make_policy(cfg.policy, kMaxObservable, rng_)),
      value_net_(value_net_sizes()),
      value_params_(value_net_.param_count()),
      pi_opt_(policy_->parameter_count(), cfg.pi_lr),
      v_opt_(value_net_.param_count(), cfg.v_lr),
      pool_(cfg.n_workers == 0 ? 1 : cfg.n_workers) {
  if (cfg_.seq_len == 0) cfg_.seq_len = 256;
  if (cfg_.trajectories_per_epoch == 0) cfg_.trajectories_per_epoch = 1;
  if (cfg_.n_workers == 0) cfg_.n_workers = 1;
  value_net_.init(value_params_.data(), rng_, 1.0f);

  // Collection never runs more lockstep lanes than there are trajectories
  // (the extra lanes would idle); evaluate_batch() still uses the full
  // requested width via its own evaluator.
  const std::size_t lanes = std::min(batch_, cfg_.trajectories_per_epoch);
  const sim::EnvConfig env_cfg{cfg_.backfill, kMaxObservable};
  workers_.reserve(cfg_.n_workers);
  for (std::size_t w = 0; w < cfg_.n_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(
        trace.processors(), env_cfg, cfg_.policy, cfg_.seq_len, lanes,
        kGradChunk));
  }

  slots_.resize(cfg_.trajectories_per_epoch);
  for (RolloutBuffer& s : slots_) s.reserve(cfg_.seq_len);

  const std::size_t cap = cfg_.trajectories_per_epoch * cfg_.seq_len;
  obs_ptr_.reserve(cap);
  act_buf_.reserve(cap);
  logp_buf_.reserve(cap);
  val_buf_.reserve(cap);
  adv_buf_.reserve(cap);
  ret_buf_.reserve(cap);
  traj_end_.reserve(cfg_.trajectories_per_epoch);
  traj_reward_.reserve(cfg_.trajectories_per_epoch);
  pi_grad_.resize(policy_->parameter_count());
  v_grad_.resize(value_net_.param_count());
  perm_.reserve(cap);

  // One gradient slab per possible chunk, wide enough for either network
  // (the policy and value updates never run concurrently).
  const std::size_t max_chunks = (cap + kGradChunk - 1) / kGradChunk;
  const std::size_t slab =
      std::max(policy_->parameter_count(), value_net_.param_count());
  chunk_grad_.resize(max_chunks);
  for (std::vector<float>& g : chunk_grad_) g.resize(slab);
  chunk_kl_.resize(max_chunks);
}

PPOTrainer::~PPOTrainer() = default;

double PPOTrainer::reward_of(const sim::RunResult& r) const {
  if (!cfg_.composite.empty()) return cfg_.composite.reward(r);
  return sim::reward_sign(cfg_.metric) * r.value(cfg_.metric);
}

void PPOTrainer::sync_worker_policies() {
  for (const std::unique_ptr<Worker>& w : workers_) {
    // Same-size vector copy-assign: no allocation.
    w->policy->param_vector() = policy_->param_vector();
  }
}

void PPOTrainer::collect_group(std::size_t group, std::uint64_t round,
                               Worker& w) {
  const std::size_t lanes = w.envs.size();
  const std::size_t t0 = group * lanes;
  const std::size_t nb =
      std::min(lanes, cfg_.trajectories_per_epoch - t0);
  constexpr std::size_t obs_floats = kJobFeatures * kMaxObservable;

  w.alive.clear();
  for (std::size_t k = 0; k < nb; ++k) {
    const std::size_t traj = t0 + k;
    RolloutBuffer& buf = slots_[traj];
    buf.clear();
    // All randomness of a trajectory comes from a substream keyed by its
    // global index — identical no matter which worker ran it or how many
    // lanes advanced in lockstep beside it.
    w.rngs[k] = util::Rng::substream(
        cfg_.seed, round * cfg_.trajectories_per_epoch + traj);
    if (cfg_.trajectory_filtering) {
      for (std::size_t attempt = 0; attempt < kMaxFilterAttempts;
           ++attempt) {
        trace_.sample_sequence_into(w.rngs[k], cfg_.seq_len, w.seqs[k]);
        if (filter_range_.contains(
                sjf_metric(w.probe, w.seqs[k], cfg_.metric))) {
          break;
        }
      }
    } else {
      trace_.sample_sequence_into(w.rngs[k], cfg_.seq_len, w.seqs[k]);
    }
    w.envs[k].reset(w.seqs[k]);
    if (!w.envs[k].done()) {
      w.alive.push_back(static_cast<std::uint32_t>(k));
    } else {
      const sim::RunResult result = w.envs[k].result();
      buf.reward = static_cast<float>(reward_of(result));
      buf.metric = result.value(cfg_.metric);
    }
  }

  // Lockstep loop: ONE batched policy forward and ONE batched value
  // forward score every live lane's window; per-lane sampling then uses
  // the lane's own RNG, so the stored trajectories are bitwise identical
  // to the lanes running one at a time.
  while (!w.alive.empty()) {
    const std::size_t n = w.alive.size();
    for (std::size_t i = 0; i < n; ++i) {
      RolloutBuffer& buf = slots_[t0 + w.alive[i]];
      buf.obs.emplace_back();
      w.builder.build_into(w.envs[w.alive[i]], buf.obs.back());
      w.obs_ptr[i] = &buf.obs.back();
    }
    w.policy->logits_batch(w.obs_ptr.data(), n, w.logits.data());
    for (std::size_t i = 0; i < n; ++i) {
      const float* f = w.obs_ptr[i]->features.data();
      for (std::size_t x = 0; x < obs_floats; ++x) w.vx[x * n + i] = f[x];
    }
    const float* vals =
        w.value_net.forward_batch(value_params_.data(), w.vx.data(), n);

    std::size_t keep = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = w.alive[i];
      RolloutBuffer& buf = slots_[t0 + k];
      const Observation& obs = *w.obs_ptr[i];
      nn::softmax_masked(w.logits.data() + i * kMaxObservable,
                         obs.mask.data(), w.probs.data(), kMaxObservable);
      // Sample from the masked categorical.
      double u = w.rngs[k].uniform();
      std::size_t a = 0;
      for (std::size_t s = 0; s < kMaxObservable; ++s) {
        if (obs.mask[s] == 0) continue;
        a = s;
        u -= w.probs[s];
        if (u <= 0.0) break;
      }
      buf.act.push_back(static_cast<std::uint32_t>(a));
      buf.logp.push_back(std::log(std::max(w.probs[a], 1e-10f)));
      buf.val.push_back(vals[i]);
      w.envs[k].step(a);
      if (!w.envs[k].done()) {
        w.alive[keep++] = static_cast<std::uint32_t>(k);
      } else {
        const sim::RunResult result = w.envs[k].result();
        buf.reward = static_cast<float>(reward_of(result));
        buf.metric = result.value(cfg_.metric);
      }
    }
    w.alive.resize(keep);
  }
}

void PPOTrainer::collect_trajectories() {
  obs_ptr_.clear();
  act_buf_.clear();
  logp_buf_.clear();
  val_buf_.clear();
  traj_end_.clear();
  traj_reward_.clear();
  epoch_metric_sum_ = 0.0;

  if (cfg_.trajectory_filtering && !filter_ready_) {
    filter_range_ =
        compute_filter_range(trace_, cfg_.metric, cfg_.seq_len,
                             kFilterProbeSamples, cfg_.seed ^ kFilterSeedSalt);
    // A degenerate range (all sequences equally easy) would reject
    // everything; fall back to unfiltered sampling in that case.
    if (!(filter_range_.hi > filter_range_.lo)) {
      filter_range_ = {-1e300, 1e300};
    }
    filter_ready_ = true;
  }

  sync_worker_policies();
  const std::uint64_t round = collect_round_++;
  // Fan out GROUPS of lockstep lanes: group g covers trajectories
  // [g*lanes, g*lanes + lanes). Group boundaries depend only on the batch
  // width, and every per-trajectory result is substream-keyed, so any
  // worker may run any group.
  const std::size_t lanes = workers_.front()->envs.size();
  const std::size_t ngroups =
      (cfg_.trajectories_per_epoch + lanes - 1) / lanes;
  pool_.for_each_index(ngroups, [&](std::size_t g, std::size_t wid) {
    collect_group(g, round, *workers_[wid]);
  });

  // Deterministic merge: flatten slots in trajectory-index order. The small
  // per-step scalars are copied; observations stay in their slots (they are
  // ~3 KB each) and are reached through a pointer view.
  for (const RolloutBuffer& b : slots_) {
    for (std::size_t k = 0; k < b.size(); ++k) {
      obs_ptr_.push_back(&b.obs[k]);
      act_buf_.push_back(b.act[k]);
      logp_buf_.push_back(b.logp[k]);
      val_buf_.push_back(b.val[k]);
    }
    traj_end_.push_back(obs_ptr_.size());
    traj_reward_.push_back(b.reward);
    epoch_metric_sum_ += b.metric;
  }
  steps_ = obs_ptr_.size();
}

void PPOTrainer::compute_advantages() {
  adv_buf_.assign(steps_, 0.0f);
  ret_buf_.assign(steps_, 0.0f);

  // Normalize terminal rewards across the epoch's rollouts: metrics like
  // bounded slowdown span orders of magnitude and would otherwise swamp the
  // value regression.
  float mean = 0.0f;
  for (const float r : traj_reward_) mean += r;
  mean /= static_cast<float>(traj_reward_.size());
  float var = 0.0f;
  for (const float r : traj_reward_) var += (r - mean) * (r - mean);
  var /= static_cast<float>(traj_reward_.size());
  const float scale = 1.0f / std::sqrt(var + 1e-6f);

  std::size_t begin = 0;
  for (std::size_t t = 0; t < traj_end_.size(); ++t) {
    const std::size_t end = traj_end_[t];
    const float reward = (traj_reward_[t] - mean) * scale;
    // GAE backward recursion; rewards are 0 except at the terminal step.
    float adv = 0.0f;
    for (std::size_t i = end; i-- > begin;) {
      const float next_v = i + 1 < end ? val_buf_[i + 1] : 0.0f;
      const float r = i + 1 == end ? reward : 0.0f;
      const float delta = r + cfg_.gamma * next_v - val_buf_[i];
      adv = delta + cfg_.gamma * cfg_.lam * adv;
      adv_buf_[i] = adv;
      ret_buf_[i] = adv + val_buf_[i];
    }
    begin = end;
  }

  // Standardize advantages over the whole buffer.
  float a_mean = 0.0f;
  for (std::size_t i = 0; i < steps_; ++i) a_mean += adv_buf_[i];
  a_mean /= static_cast<float>(steps_);
  float a_var = 0.0f;
  for (std::size_t i = 0; i < steps_; ++i) {
    a_var += (adv_buf_[i] - a_mean) * (adv_buf_[i] - a_mean);
  }
  a_var /= static_cast<float>(steps_);
  const float a_scale = 1.0f / std::sqrt(a_var + 1e-6f);
  for (std::size_t i = 0; i < steps_; ++i) {
    adv_buf_[i] = (adv_buf_[i] - a_mean) * a_scale;
  }
}

void PPOTrainer::reset_perm() {
  perm_.resize(steps_);
  for (std::size_t i = 0; i < steps_; ++i) {
    perm_[i] = static_cast<std::uint32_t>(i);
  }
}

void PPOTrainer::update_policy() {
  const std::size_t batch =
      cfg_.minibatch == 0 ? steps_ : std::min(cfg_.minibatch, steps_);
  const std::size_t np = policy_->parameter_count();
  reset_perm();

  for (std::size_t iter = 0; iter < cfg_.pi_iters; ++iter) {
    // Fisher-Yates shuffle with the trainer's own rng (reproducible).
    for (std::size_t i = steps_; i-- > 1;) {
      const std::size_t j = static_cast<std::size_t>(rng_.below(i + 1));
      std::swap(perm_[i], perm_[j]);
    }
    double kl_sum = 0.0;
    for (std::size_t start = 0; start < steps_; start += batch) {
      const std::size_t stop = std::min(start + batch, steps_);
      const float inv_batch = 1.0f / static_cast<float>(stop - start);
      const std::size_t nchunks = (stop - start + kGradChunk - 1) / kGradChunk;

      // Parameters moved in the previous Adam step — refresh the clones.
      sync_worker_policies();
      const bool batched = policy_->supports_batched_update();
      pool_.for_each_index(nchunks, [&](std::size_t ci, std::size_t wid) {
        Worker& w = *workers_[wid];
        float* g = chunk_grad_[ci].data();
        std::fill_n(g, np, 0.0f);
        double kl = 0.0;
        const std::size_t cb = start + ci * kGradChunk;
        const std::size_t ce = std::min(cb + kGradChunk, stop);
        if (batched) {
          // Batched chunk: ONE forward scores all samples (job axis
          // m x 128), the clip test marks saturated samples inactive, and
          // ONE backward accumulates the survivors with per-window
          // order-stable reductions — bitwise identical to the per-sample
          // path below.
          const std::size_t m = ce - cb;
          for (std::size_t q = 0; q < m; ++q) {
            w.obs_ptr[q] = obs_ptr_[perm_[cb + q]];
          }
          w.policy->logits_batch(w.obs_ptr.data(), m, w.logits.data());
          for (std::size_t q = 0; q < m; ++q) {
            const std::size_t i = perm_[cb + q];
            const Observation& obs = *w.obs_ptr[q];
            nn::softmax_masked(w.logits.data() + q * kMaxObservable,
                               obs.mask.data(), w.probs.data(),
                               kMaxObservable);
            const std::uint32_t a = act_buf_[i];
            const float logp_new = std::log(std::max(w.probs[a], 1e-10f));
            const float ratio = std::exp(logp_new - logp_buf_[i]);
            const float adv = adv_buf_[i];
            kl += logp_buf_[i] - logp_new;
            const bool clipped =
                (adv >= 0.0f && ratio > 1.0f + cfg_.clip) ||
                (adv < 0.0f && ratio < 1.0f - cfg_.clip);
            w.active[q] = clipped ? 0 : 1;
            if (clipped) continue;
            const float coef = ratio * adv * inv_batch;
            float* dl = w.dlogits.data() + q * kMaxObservable;
            for (std::size_t k = 0; k < kMaxObservable; ++k) {
              // d(-logpi[a])/dlogits = probs - onehot(a), times -coef
              dl[k] = coef * w.probs[k];
            }
            dl[a] -= coef;
          }
          w.policy->backward_batch(w.obs_ptr.data(), m, w.dlogits.data(),
                                   w.active.data(), g);
        } else {
          Logits dlogits;
          for (std::size_t s = cb; s < ce; ++s) {
            const std::size_t i = perm_[s];
            const Observation& obs = *obs_ptr_[i];
            const Logits logits = w.policy->logits(obs);
            nn::softmax_masked(logits.data(), obs.mask.data(),
                               w.probs.data(), kMaxObservable);
            const std::uint32_t a = act_buf_[i];
            const float logp_new = std::log(std::max(w.probs[a], 1e-10f));
            const float ratio = std::exp(logp_new - logp_buf_[i]);
            const float adv = adv_buf_[i];
            kl += logp_buf_[i] - logp_new;
            // Clipped surrogate: zero gradient once the ratio leaves the
            // trust region in the advantage's direction.
            const bool clipped =
                (adv >= 0.0f && ratio > 1.0f + cfg_.clip) ||
                (adv < 0.0f && ratio < 1.0f - cfg_.clip);
            if (clipped) continue;
            const float coef = ratio * adv * inv_batch;
            for (std::size_t k = 0; k < kMaxObservable; ++k) {
              dlogits[k] = coef * w.probs[k];
            }
            dlogits[a] -= coef;
            w.policy->backward(obs, dlogits, g);
          }
        }
        chunk_kl_[ci] = kl;
      });

      // Reduce in chunk order — float summation order is fixed, so the
      // result is identical for every worker count.
      std::fill(pi_grad_.begin(), pi_grad_.end(), 0.0f);
      for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const float* g = chunk_grad_[ci].data();
        for (std::size_t k = 0; k < np; ++k) pi_grad_[k] += g[k];
        kl_sum += chunk_kl_[ci];
      }
      pi_opt_.step(policy_->param_vector().data(), pi_grad_.data());
    }
    if (kl_sum / static_cast<double>(steps_) > cfg_.target_kl) break;
  }
}

void PPOTrainer::update_value() {
  const std::size_t batch =
      cfg_.minibatch == 0 ? steps_ : std::min(cfg_.minibatch, steps_);
  const std::size_t nv = value_net_.param_count();
  reset_perm();

  for (std::size_t iter = 0; iter < cfg_.v_iters; ++iter) {
    for (std::size_t i = steps_; i-- > 1;) {
      const std::size_t j = static_cast<std::size_t>(rng_.below(i + 1));
      std::swap(perm_[i], perm_[j]);
    }
    for (std::size_t start = 0; start < steps_; start += batch) {
      const std::size_t stop = std::min(start + batch, steps_);
      const float inv_batch = 1.0f / static_cast<float>(stop - start);
      const std::size_t nchunks = (stop - start + kGradChunk - 1) / kGradChunk;

      // value_params_ is read-only during the fan-out (the Adam step below
      // runs after the pool barrier), so workers share it directly. The
      // whole chunk goes through ONE batched forward/backward; the chunk is
      // a single order-stable reduction window, so the summed gradient
      // depends only on the (fixed) chunk boundaries — never on batch
      // width or worker count.
      pool_.for_each_index(nchunks, [&](std::size_t ci, std::size_t wid) {
        Worker& w = *workers_[wid];
        float* g = chunk_grad_[ci].data();
        std::fill_n(g, nv, 0.0f);
        const std::size_t cb = start + ci * kGradChunk;
        const std::size_t ce = std::min(cb + kGradChunk, stop);
        const std::size_t m = ce - cb;
        constexpr std::size_t obs_floats = kJobFeatures * kMaxObservable;
        for (std::size_t q = 0; q < m; ++q) {
          const float* f = obs_ptr_[perm_[cb + q]]->features.data();
          for (std::size_t x = 0; x < obs_floats; ++x) {
            w.vx[x * m + q] = f[x];
          }
        }
        const float* v =
            w.value_net.forward_batch(value_params_.data(), w.vx.data(), m);
        for (std::size_t q = 0; q < m; ++q) {
          w.vdout[q] = 2.0f * (v[q] - ret_buf_[perm_[cb + q]]) * inv_batch;
        }
        w.value_net.backward_batch(value_params_.data(), w.vx.data(),
                                   w.vdout.data(), g, m, /*window=*/0,
                                   nullptr, nullptr);
      });

      std::fill(v_grad_.begin(), v_grad_.end(), 0.0f);
      for (std::size_t ci = 0; ci < nchunks; ++ci) {
        const float* g = chunk_grad_[ci].data();
        for (std::size_t k = 0; k < nv; ++k) v_grad_[k] += g[k];
      }
      v_opt_.step(value_params_.data(), v_grad_.data());
    }
  }
}

EpochStats PPOTrainer::train_epoch() {
  const auto t0 = std::chrono::steady_clock::now();
  collect_trajectories();
  const auto t1 = std::chrono::steady_clock::now();
  if (steps_ > 0) {
    compute_advantages();
    update_policy();
    update_value();
  }
  const auto t2 = std::chrono::steady_clock::now();
  EpochStats stats;
  stats.epoch = epoch_++;
  stats.avg_metric =
      traj_end_.empty()
          ? 0.0
          : epoch_metric_sum_ / static_cast<double>(traj_end_.size());
  stats.collect_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.update_seconds = std::chrono::duration<double>(t2 - t1).count();
  stats.seconds = std::chrono::duration<double>(t2 - t0).count();
  return stats;
}

sim::RunResult PPOTrainer::greedy(sim::SchedulingEnv& env) const {
  Observation obs;
  while (!env.done()) {
    builder_.build_into(env, obs);
    const Logits logits = policy_->logits(obs);
    env.step(nn::argmax_masked(logits.data(), obs.mask.data(),
                               kMaxObservable));
  }
  return env.result();
}

sim::RunResult PPOTrainer::evaluate(const std::vector<trace::Job>& seq,
                                    int processors, bool backfill) const {
  sim::SchedulingEnv env(processors, sim::EnvConfig{backfill, kMaxObservable});
  env.reset(seq);
  return greedy(env);
}

std::vector<sim::RunResult> PPOTrainer::evaluate_batch(
    const std::vector<std::vector<trace::Job>>& seqs, int processors,
    bool backfill) const {
  std::vector<sim::RunResult> out(seqs.size());
  if (evaluator_ == nullptr) {
    evaluator_ = std::make_unique<BatchedEvaluator>(*policy_, batch_);
  }
  evaluator_->evaluate(seqs, processors, backfill, out.data());
  return out;
}

sim::RunResult PPOTrainer::evaluate_stream(trace::JobSource& source,
                                           int processors, bool backfill,
                                           std::size_t chunk_jobs) const {
  sim::SchedulingEnv env(processors, sim::EnvConfig{backfill, kMaxObservable});
  env.reset(source, chunk_jobs);
  return greedy(env);
}

void PPOTrainer::save(const std::string& path) const {
  // Written beside the target and renamed over it, so an interrupted save
  // never leaves a truncated model where load() would find it.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (!out) throw std::runtime_error("cannot write model file: " + path);
  out << "rlsched-model 1\n";
  out << "policy " << policy_kind_name(cfg_.policy) << ' '
      << policy_->parameter_count() << '\n';
  out.precision(9);
  write_params(out, policy_->param_vector());
  out << "value " << value_params_.size() << '\n';
  write_params(out, value_params_);
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write model file: " + path);
  }
}

void PPOTrainer::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read model file: " + path);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "rlsched-model" || version != 1) {
    throw std::runtime_error("unrecognized model file: " + path);
  }
  std::string section, kind;
  std::size_t count = 0;
  in >> section >> kind >> count;
  if (section != "policy" || kind != policy_kind_name(cfg_.policy) ||
      count != policy_->parameter_count()) {
    throw std::runtime_error("model file does not match configuration: " +
                             path);
  }
  // Parsed into scratch and committed only once the whole file checks
  // out: a rejected file leaves the live parameters untouched.
  std::vector<float> policy_params(count);
  for (float& p : policy_params) in >> p;
  in >> section >> count;
  if (section != "value" || count != value_params_.size()) {
    throw std::runtime_error("model file value section mismatch: " + path);
  }
  std::vector<float> value_params(count);
  for (float& p : value_params) in >> p;
  if (!in) throw std::runtime_error("truncated model file: " + path);
  if (!(in >> std::ws).eof()) {
    throw std::runtime_error("trailing data in model file: " + path);
  }
  std::copy(policy_params.begin(), policy_params.end(),
            policy_->param_vector().begin());
  std::copy(value_params.begin(), value_params.end(), value_params_.begin());
}

}  // namespace rlsched::rl
