// Fig 7 reproduction: the distribution of SJF average bounded slowdown over
// randomly sampled 256-job sequences of PIK-IPLEX, with the median / mean /
// 2*mean markers the trajectory filter derives its range R from (SS IV-C).
#include <iostream>

#include "bench_common.hpp"
#include "rl/filter.hpp"
#include "util/stats.hpp"

int main() {
  using namespace rlsched;
  const auto scale = bench::bench_scale();
  const auto trace = workload::make_trace("PIK-IPLEX", 10000, scale.seed);

  const std::size_t samples = std::max<std::size_t>(scale.eval_seqs * 20, 60);
  util::Rng rng(scale.seed ^ 0xF16ULL);
  sim::SchedulingEnv probe(trace.processors());
  std::vector<double> values;
  values.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto seq = trace.sample_sequence(rng, 256);
    values.push_back(
        rl::sjf_metric(probe, seq, sim::Metric::BoundedSlowdown));
  }

  const auto s = util::summarize(values);
  std::cout << "== Fig 7: distribution of SJF bsld over " << samples
            << " sampled 256-job PIK sequences ==\n";
  // Log-ish binning via a linear histogram over [0, p99] plus overflow info.
  util::Histogram hist(0.0, std::max(s.p99, 1.0), 20);
  for (const double v : values) hist.add(v);
  std::cout << hist.ascii(40);
  std::cout << "\nmedian = " << bench::cell(s.median)
            << "\nmean   = " << bench::cell(s.mean)
            << "\n2*mean = " << bench::cell(2 * s.mean)
            << "\nskewness = " << bench::cell(s.skewness)
            << "\nmax    = " << bench::cell(s.max) << "\n";

  const auto range = rl::compute_filter_range(
      trace, sim::Metric::BoundedSlowdown, 256, samples, scale.seed ^ 0xF16ULL);
  std::cout << "\ntrajectory-filter range R = (" << bench::cell(range.lo)
            << ", " << bench::cell(range.hi) << "]\n"
            << "(paper Fig 7: median ~1, mean ~730, R = (1, 1460) — a\n"
               "heavily right-skewed distribution where most sequences are\n"
               "'easy' and a thin tail is 'hard')\n";
  return 0;
}
