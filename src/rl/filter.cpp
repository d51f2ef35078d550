#include "rl/filter.hpp"

#include "sched/heuristics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rlsched::rl {

double sjf_metric(sim::SchedulingEnv& probe,
                  const std::vector<trace::Job>& seq, sim::Metric metric) {
  probe.reset(seq);
  return probe
      .run_priority(sched::sjf_priority(), sim::PriorityKind::TimeInvariant)
      .value(metric);
}

FilterRange compute_filter_range(const trace::Trace& trace, sim::Metric metric,
                                 std::size_t seq_len, std::size_t samples,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  sim::SchedulingEnv probe(trace.processors());
  std::vector<double> values;
  values.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto seq = trace.sample_sequence(rng, seq_len);
    values.push_back(sjf_metric(probe, seq, metric));
  }
  const auto s = util::summarize(values);
  return {s.median, 2.0 * s.mean};
}

}  // namespace rlsched::rl
