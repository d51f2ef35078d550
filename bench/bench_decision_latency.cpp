// Kernel-policy decision latency: float32 vs int8 quantized inference,
// and the data for the CI perf gate.
//
// Measures decisions/sec (and µs per decision) at batch widths B in
// {1, 32} for two paths over the SAME congested observation pool:
//
//   kernel_f32    the float batched-argmax decision (pack + logits +
//                 masked argmax), i.e. the Table IX baseline path.
//   kernel_int8   the quantized decision: u8 activation packing, VNNI /
//                 scalar int8 MACs with fused requantization, dequantized
//                 head, same masked argmax. Where the VNNI kernel runs,
//                 the report checks int8 >= 5x the float decisions/sec
//                 at B=32.
//
// Self-checks before timing (a perf number from a broken engine is
// meaningless; either violation exits nonzero):
//   * the quantized batched rows are BITWISE equal to the unbatched
//     quantized forward (batching is a throughput knob, never semantics);
//   * every quantized logit is within a per-logit error bound of the
//     float logit (8% of the fixture's logit amax, the bound gated
//     bitwise-strictly in tests/test_quant.cpp);
//   * with quantization disabled the quant entry points reproduce the
//     float path bit-for-bit;
//   * the steady-state timed loops perform ZERO heap allocation
//     (counting global operator new).
//
// Output: a human table on stderr, and with --json the perf-gate report
// on stdout (docs/benchmarks.md). It records quant_isa as a host property,
// so the gate can tell a real regression from a host without the recorded
// backend. RLSCHED_BENCH_SEED varies the workload.
#include <cstdio>
#include <cstdlib>
#include <new>

#include "../tests/counting_alloc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/ops.hpp"
#include "nn/quant.hpp"
#include "nn/simd.hpp"
#include "rl/batch_eval.hpp"
#include "rl/policy.hpp"
#include "util/env.hpp"

namespace {

using namespace rlsched;

constexpr std::size_t kPool = bench::kPoolWindows;
constexpr std::size_t kWidths[] = {1, 32};

void self_check(rl::Policy& policy, const bench::ObsPool& pool) {
  // Float and quantized rows of the whole pool, window-major.
  constexpr std::size_t K = rl::kMaxObservable;
  std::vector<float> f(kPool * K), q(kPool * K), row(K);
  // Quant OFF: the quant entry points must be the float path, bitwise.
  policy.logits_batch(pool.ptr.data(), kPool, f.data());
  policy.logits_quant_batch(pool.ptr.data(), kPool, q.data());
  if (std::memcmp(f.data(), q.data(), f.size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "FATAL: quant-off path differs from float\n");
    std::exit(1);
  }
  if (!policy.enable_quant(pool.ptr.data(), pool.ptr.size())) {
    std::fprintf(stderr, "FATAL: enable_quant failed\n");
    std::exit(1);
  }

  // Batched quant rows == the one-window quant forward, bitwise.
  policy.logits_quant_batch(pool.ptr.data(), kPool, q.data());
  for (std::size_t k = 0; k < kPool; ++k) {
    policy.logits_quant_batch(pool.ptr.data() + k, 1, row.data());
    if (std::memcmp(q.data() + k * K, row.data(), K * sizeof(float)) != 0) {
      std::fprintf(stderr, "FATAL: batched quant row %zu != unbatched\n", k);
      std::exit(1);
    }
  }

  // Per-logit error bound vs float (the strict per-window gates live in
  // tests/test_quant.cpp; here the bound guards against a mis-calibrated
  // fixture producing a fast-but-wrong perf number).
  float amax = 0.0f;
  for (std::size_t k = 0; k < kPool; ++k) {
    for (std::size_t j = 0; j < pool.obs[k].count; ++j) {
      amax = std::max(amax, std::fabs(f[k * K + j]));
    }
  }
  const float tol = 0.08f * std::max(amax, 1e-3f);
  for (std::size_t k = 0; k < kPool; ++k) {
    for (std::size_t j = 0; j < pool.obs[k].count; ++j) {
      const float err = std::fabs(q[k * K + j] - f[k * K + j]);
      if (err > tol) {
        std::fprintf(stderr,
                     "FATAL: quant logit error %.4g beyond bound %.4g\n",
                     static_cast<double>(err), static_cast<double>(tol));
        std::exit(1);
      }
    }
  }
}

struct MetricRow {
  std::string name;
  double dps[2];  // one per kWidths entry
};

}  // namespace

int main(int argc, char** argv) {
  const auto seed = static_cast<std::uint64_t>(
      util::env_long("RLSCHED_BENCH_SEED", 42, 0));
  const bench::ObsPool pool = bench::make_pool(seed);

  util::Rng rng(seed ^ 0xD11C);
  const auto kernel =
      rl::make_policy(rl::PolicyKind::Kernel, rl::kMaxObservable, rng);
  self_check(*kernel, pool);

  std::vector<float> logits(kPool * rl::kMaxObservable);
  std::vector<std::uint32_t> actions(kPool);

  std::vector<MetricRow> rows;
  for (const bool quant : {false, true}) {
    MetricRow row;
    row.name = quant ? "kernel_int8" : "kernel_f32";
    for (std::size_t wi = 0; wi < 2; ++wi) {
      const std::size_t B = kWidths[wi];
      row.dps[wi] = bench::decisions_per_sec([&] {
        for (std::size_t g = 0; g < kPool; g += B) {
          if (quant) {
            rl::batched_argmax_quant(*kernel, pool.ptr.data() + g, B,
                                     logits.data(), actions.data() + g);
          } else {
            rl::batched_argmax(*kernel, pool.ptr.data() + g, B,
                               logits.data(), actions.data() + g);
          }
        }
      }, g_allocs);
    }
    rows.push_back(row);
  }

  std::fprintf(stderr,
               "decision latency: f32 vs int8 (quant isa %s, SIMD lanes "
               "%zu, pool %zu windows, seed %llu)\n",
               nn::quant_isa(), nn::kSimdLanes, kPool,
               static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "%-14s %14s %14s %12s %12s\n", "path", "B=1 dec/s",
               "B=32 dec/s", "B=1 us/dec", "B=32 us/dec");
  for (const MetricRow& r : rows) {
    std::fprintf(stderr, "%-14s %14.0f %14.0f %12.3f %12.3f\n",
                 r.name.c_str(), r.dps[0], r.dps[1], 1e6 / r.dps[0],
                 1e6 / r.dps[1]);
  }
  std::fprintf(stderr, "int8 vs f32: %.2fx at B=1, %.2fx at B=32\n",
               rows[1].dps[0] / rows[0].dps[0],
               rows[1].dps[1] / rows[0].dps[1]);

  // int8/f32 ratios divide out the host's speed, so they fail past the
  // band; absolute decisions/sec only warn. The >= 5x floor was recorded
  // for the VNNI kernel and holds only where that kernel runs.
  using B = bench::Report::Better;
  using M = bench::Report::Miss;
  bench::Report report("bench_decision_latency");
  report.config("simd_lanes", nn::kSimdLanes);
  report.config("pool_windows", kPool);
  report.host("quant_isa", nn::quant_isa());
  for (std::size_t wi = 0; wi < 2; ++wi) {
    const std::string b = "_b" + std::to_string(kWidths[wi]);
    report.value("int8_over_f32" + b, rows[1].dps[wi] / rows[0].dps[wi],
                 B::kHigher, M::kFails);
    for (const MetricRow& r : rows) {
      report.value(r.name + b + "_dps", r.dps[wi], B::kHigher, M::kWarns);
    }
  }
  if (std::strcmp(nn::quant_isa(), "avx512vnni") == 0) {
    report.check_at_least("int8_over_f32_b32", rows[1].dps[1] / rows[0].dps[1],
                          5.0);
  }
  return report.finish(bench::json_flag(argc, argv));
}
