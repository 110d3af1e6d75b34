#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {

void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs) {
  runs.clear();
  for (std::size_t i = 0; i < events.size();) {
    ExecRun run;
    run.kernel = events[i].kernel;
    run.first_event = static_cast<std::uint32_t>(i);
    run.first_gap = events[i].gap_before;
    do {
      run.gap_total += events[i].gap_before;
      ++i;
    } while (i < events.size() && events[i].kernel == run.kernel);
    run.count = static_cast<std::uint32_t>(i) - run.first_event;
    runs.push_back(run);
  }
}

const std::vector<ExecRun>& decoded_runs(
    const FunctionalBlockInstance& instance, std::vector<ExecRun>& scratch) {
  const bool runs_valid =
      !instance.runs.empty() &&
      static_cast<std::size_t>(instance.runs.back().first_event) +
              instance.runs.back().count ==
          instance.events.size();
  if (runs_valid) return instance.runs;
  decode_runs(instance.events, scratch);
  return scratch;
}

TriggerInstruction derive_trigger(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel) {
  struct Acc {
    std::uint32_t kernel = 0;
    double executions = 0.0;
    Cycles first_start = 0;
    Cycles last_end = 0;
    Cycles gap_sum = 0;  // idle cycles between consecutive executions
  };
  // A block holds a handful of kernels: a linear search over a small vector
  // (sorted by kernel id below) replaces an ordered map.
  std::vector<Acc> acc;
  std::vector<ExecRun> scratch;
  const std::vector<ExecRun>& runs = decoded_runs(instance, scratch);

  // One step per run. Gaps inside a run separate consecutive executions of
  // the same kernel, so they enter gap_sum directly; every sum is an integer
  // sum, so the result equals a walk over the individual events.
  Cycles cursor = 0;
  for (const ExecRun& run : runs) {
    const auto kid = raw(run.kernel);
    if (kid >= risc_latency_by_kernel.size()) {
      throw std::invalid_argument("derive_trigger: kernel without latency");
    }
    const Cycles first_start = cursor + run.first_gap;
    auto a = std::find_if(acc.begin(), acc.end(),
                          [kid](const Acc& x) { return x.kernel == kid; });
    if (a == acc.end()) {
      a = acc.insert(acc.end(), Acc{kid, 0.0, first_start, 0, 0});
    } else {
      a->gap_sum += first_start - a->last_end;
    }
    a->gap_sum += run.gap_total - run.first_gap;
    a->executions += static_cast<double>(run.count);
    cursor += run.gap_total + run.count * risc_latency_by_kernel[kid];
    a->last_end = cursor;
  }
  std::sort(acc.begin(), acc.end(), [](const Acc& x, const Acc& y) {
    return x.kernel < y.kernel;
  });

  TriggerInstruction ti;
  ti.functional_block = instance.functional_block;
  for (const Acc& a : acc) {
    TriggerEntry entry;
    entry.kernel = KernelId{a.kernel};
    entry.expected_executions = a.executions;
    entry.time_to_first = a.first_start;
    entry.time_between =
        a.executions > 1.0
            ? static_cast<Cycles>(static_cast<double>(a.gap_sum) /
                                  (a.executions - 1.0))
            : Cycles{0};
    ti.entries.push_back(entry);
  }
  return ti;
}

}  // namespace mrts
