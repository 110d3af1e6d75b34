#include "workload/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/app_simulator.h"

namespace mrts {

FunctionalBlockInstance make_block_instance(
    FunctionalBlockId fb, unsigned macroblocks,
    const std::vector<KernelWork>& work, Cycles entry_gap, Cycles tail_gap,
    Rng& rng) {
  if (macroblocks == 0) {
    throw std::invalid_argument("make_block_instance: zero macroblocks");
  }
  for (const KernelWork& kw : work) {
    // The running remainder is converted to unsigned, which is only defined
    // for values in [0, UINT_MAX] (NaN fails the test); a NaN jitter would
    // silently turn every gap into zero.
    if (!(kw.repetitions_per_mb >= 0.0 &&
          kw.repetitions_per_mb <
              static_cast<double>(std::numeric_limits<unsigned>::max()))) {
      throw std::invalid_argument(
          "make_block_instance: repetitions_per_mb must be non-negative and "
          "below UINT_MAX");
    }
    if (!(kw.gap_jitter >= 0.0 && std::isfinite(kw.gap_jitter))) {
      throw std::invalid_argument(
          "make_block_instance: gap_jitter must be finite and non-negative");
    }
  }
  // Executions of kernel w in macroblock mb: the running remainder's integer
  // part. Replaying the same arithmetic first gives the exact event count.
  std::vector<double> remainder(work.size(), 0.0);
  auto next_reps = [&](std::size_t w) {
    remainder[w] += work[w].repetitions_per_mb;
    const auto reps = static_cast<unsigned>(remainder[w]);
    remainder[w] -= reps;
    return reps;
  };
  std::size_t total = 0;
  for (unsigned mb = 0; mb < macroblocks; ++mb) {
    for (std::size_t w = 0; w < work.size(); ++w) total += next_reps(w);
  }
  std::fill(remainder.begin(), remainder.end(), 0.0);

  // The run-compressed view is built alongside, at build time: the trace is
  // shared read-only across sweep points, so every run_block call replays
  // the same pre-decoded runs instead of re-scanning the event list. Both
  // are filled as locals: their addresses never escape, so the out-of-line
  // Rng call does not force the vectors' state to be reloaded per event.
  std::vector<ExecEvent> events;
  events.reserve(total);
  std::vector<ExecRun> runs;
  ExecRun run;  // the run being extended (count 0 before the first event)
  for (unsigned mb = 0; mb < macroblocks; ++mb) {
    for (std::size_t w = 0; w < work.size(); ++w) {
      const KernelWork& kw = work[w];
      const unsigned reps = next_reps(w);
      for (unsigned r = 0; r < reps; ++r) {
        ExecEvent ev;
        ev.kernel = kw.kernel;
        const double jitter =
            1.0 + kw.gap_jitter * (2.0 * rng.uniform01() - 1.0);
        ev.gap_before = static_cast<Cycles>(
            std::max(0.0, static_cast<double>(kw.gap_cycles) * jitter));
        if (events.empty()) ev.gap_before += entry_gap;
        if (run.count > 0 && run.kernel != ev.kernel) {
          runs.push_back(run);
          run = ExecRun{};
        }
        if (run.count == 0) {
          run.kernel = ev.kernel;
          run.first_event = static_cast<std::uint32_t>(events.size());
          run.first_gap = ev.gap_before;
        }
        ++run.count;
        run.gap_total += ev.gap_before;
        events.push_back(ev);
      }
    }
  }
  if (run.count > 0) runs.push_back(run);
  FunctionalBlockInstance instance;
  instance.functional_block = fb;
  instance.tail_gap = tail_gap;
  instance.events = std::move(events);
  instance.runs = std::move(runs);
  return instance;
}

void stamp_programmed_trigger(FunctionalBlockInstance& instance,
                              const IseLibrary& lib) {
  instance.programmed =
      derive_trigger(instance, risc_latency_table(lib));
}

}  // namespace mrts
