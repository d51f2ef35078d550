// Batched-inference engine throughput, and the data for the CI perf gate.
//
// Measures decisions/sec at batch widths B in {1, 8, 32} for three paths:
//
//   eval_kernel     kernel-policy evaluation sweep: pack + logits + masked
//                   argmax per window (the Table IX decision). This net is
//                   already batched over its 128-job window internally, so
//                   the curve is FLAT in B — reported to prove batching
//                   never hurts it (the window-blocked schedule; DESIGN.md).
//   eval_mlp        mlp_v1 evaluation sweep: the weight-bound case (~0.5 MB
//                   streamed per unbatched forward) where B x window
//                   batching delivers the GEMV->GEMM win; the report checks
//                   >= 2x decisions/sec at B=32 vs B=1.
//   rollout_kernel  the PPO trainer's rollout decision point — kernel
//                   policy logits PLUS a value-net estimate per window,
//                   exactly what collect_group() computes per step. The
//                   value net (768-input) dominates unbatched; the report
//                   checks >= 2x at B=32 vs B=1 here too.
//
// The bench self-checks before timing: batched actions must equal the
// unbatched argmax bitwise, and the steady-state timed loops must perform
// ZERO heap allocation (counting global operator new) — a perf number from
// an allocating or action-changing engine is meaningless, so either
// violation exits nonzero.
//
// Output: a human table on stderr, and with --json the perf-gate report
// on stdout (docs/benchmarks.md). RLSCHED_BENCH_SEED varies the workload.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "../tests/counting_alloc.hpp"

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/mlp.hpp"
#include "nn/ops.hpp"
#include "nn/simd.hpp"
#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "util/env.hpp"

namespace {

using namespace rlsched;

volatile float g_sink = 0.0f;  ///< keeps the value forwards observable

constexpr std::size_t kPool = bench::kPoolWindows;
constexpr std::size_t kWidths[] = {1, 8, 32};

void check_actions_match(const rl::Policy& policy, const bench::ObsPool& pool,
                         const std::vector<std::uint32_t>& batched_actions) {
  rl::Logits single;
  for (std::size_t k = 0; k < kPool; ++k) {
    std::uint32_t a = 0;
    rl::batched_argmax(policy, pool.ptr.data() + k, 1, single.data(), &a);
    if (batched_actions[k] != a) {
      std::fprintf(stderr,
                   "FATAL: batched action %u != unbatched %u at window "
                   "%zu\n",
                   batched_actions[k], a, k);
      std::exit(1);
    }
  }
}

struct MetricRow {
  std::string name;
  double dps[3];  // one per kWidths entry
};

}  // namespace

int main(int argc, char** argv) {
  const auto seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", 42, 0));
  const bench::ObsPool pool = bench::make_pool(seed);

  util::Rng rng(seed ^ 0xB47C);
  const auto kernel =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  const auto mlp =
      rl::make_policy(rl::PolicyKind::MlpV1, rl::kMaxObservable, rng);
  nn::FlatMlp value_net(
      {rl::kJobFeatures * rl::kMaxObservable, 32, 32, 1});
  std::vector<float> value_params(value_net.param_count());
  value_net.init(value_params.data(), rng);

  std::vector<float> logits(kPool * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(kPool);
  std::vector<float> vx(rl::kJobFeatures * rl::kMaxObservable * 32);

  std::vector<MetricRow> rows;
  for (const rl::Policy* policy : {kernel.get(), mlp.get()}) {
    MetricRow row;
    row.name = policy->kind() == rl::PolicyKind::Kernel ? "eval_kernel"
                                                        : "eval_mlp";
    for (std::size_t wi = 0; wi < 3; ++wi) {
      const std::size_t B = kWidths[wi];
      row.dps[wi] = bench::decisions_per_sec([&] {
        for (std::size_t g = 0; g < kPool; g += B) {
          rl::batched_argmax(*policy, pool.ptr.data() + g, B,
                             logits.data(), actions.data() + g);
        }
      }, g_allocs);
    }
    check_actions_match(*policy, pool, actions);
    rows.push_back(row);
  }

  {
    // Rollout decision point: policy scores + value estimate per window,
    // as in PPOTrainer::collect_group. The value input is the
    // SoA-transposed observation features, packed inside the timed region
    // one sample at a time; the trainer's pack_value_input writes 8
    // samples per feature row instead, so this row times a slower pack
    // than training runs. The loop stays as it is because the gated
    // baseline ratio was recorded with it.
    MetricRow row;
    row.name = "rollout_kernel";
    constexpr std::size_t obs_floats =
        rl::kJobFeatures * rl::kMaxObservable;
    for (std::size_t wi = 0; wi < 3; ++wi) {
      const std::size_t B = kWidths[wi];
      row.dps[wi] = bench::decisions_per_sec([&] {
        for (std::size_t g = 0; g < kPool; g += B) {
          rl::batched_argmax(*kernel, pool.ptr.data() + g, B, logits.data(),
                             actions.data() + g);
          for (std::size_t i = 0; i < B; ++i) {
            const float* f = pool.obs[g + i].features.data();
            for (std::size_t x = 0; x < obs_floats; ++x) {
              vx[x * B + i] = f[x];
            }
          }
          const float* v =
              value_net.forward_batch(value_params.data(), vx.data(), B);
          g_sink = g_sink + v[0];
        }
      }, g_allocs);
    }
    rows.push_back(row);
  }

  std::fprintf(stderr, "batched inference engine (SIMD lanes %zu, pool %zu"
               " windows of %.2f jobs on average, seed %llu)\n",
               nn::kSimdLanes, kPool, bench::mean_occupancy(pool),
               static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "%-16s %14s %14s %14s %10s\n", "path",
               "B=1 dec/s", "B=8 dec/s", "B=32 dec/s", "32 vs 1");
  for (const MetricRow& r : rows) {
    std::fprintf(stderr, "%-16s %14.0f %14.0f %14.0f %9.2fx\n",
                 r.name.c_str(), r.dps[0], r.dps[1], r.dps[2],
                 r.dps[2] / r.dps[0]);
  }

  // Batching speedups divide out the host's speed, so they fail past the
  // band; absolute decisions/sec only warn. The kernel-policy sweep has no
  // floor: its honest curve is flat.
  using B = bench::Report::Better;
  using M = bench::Report::Miss;
  bench::Report report("bench_batch_inference");
  report.config("simd_lanes", nn::kSimdLanes);
  report.config("pool_windows", kPool);
  for (const MetricRow& r : rows) {
    for (std::size_t wi = 0; wi < 3; ++wi) {
      const std::string b = "_b" + std::to_string(kWidths[wi]);
      if (wi > 0) {
        report.value(r.name + b + "_over_b1", r.dps[wi] / r.dps[0],
                     B::kHigher, M::kFails);
      }
      report.value(r.name + b + "_dps", r.dps[wi], B::kHigher, M::kWarns);
    }
  }
  for (const MetricRow& r : {rows[1], rows[2]}) {
    report.check_at_least(r.name + "_b32_over_b1", r.dps[2] / r.dps[0], 2.0);
  }
  return report.finish(bench::json_flag(argc, argv));
}
