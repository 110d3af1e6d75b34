#pragma once
/// \file schedule.h
/// Application traces. A trace is the sequence of functional-block instances
/// the core processor executes; each instance carries the programmed trigger
/// instruction (the static forecast embedded in the binary) and the *actual*
/// interleaved kernel-execution schedule of that instance (which varies with
/// the input data — this variation is what the run-time system adapts to).

#include <string>
#include <vector>

#include "isa/trigger.h"
#include "util/types.h"

namespace mrts {

/// One kernel execution in program order: \p gap_before is the number of
/// non-kernel (plain software) cycles the core spends before starting it.
struct ExecEvent {
  KernelId kernel = kInvalidKernel;
  Cycles gap_before = 0;
};

/// A maximal run of consecutive executions of the same kernel, decoded once
/// from an instance's event list (FunctionalBlockInstance::runs). The batched
/// frame-execution fast path dispatches whole runs through
/// RuntimeSystem::execute_run instead of one virtual call per event.
struct ExecRun {
  KernelId kernel = kInvalidKernel;
  std::uint32_t first_event = 0;  ///< index of the run's first event
  std::uint32_t count = 0;        ///< number of consecutive events
  Cycles gap_total = 0;           ///< sum of gap_before over the run's events
  /// gap_before of the first event, copied here so the steady-state fast
  /// path never has to touch the (much larger) event array.
  Cycles first_gap = 0;
};

/// One dynamic instance of a functional block.
struct FunctionalBlockInstance {
  FunctionalBlockId functional_block = kInvalidFunctionalBlock;
  /// Forecast embedded in the binary (from offline profiling); the same for
  /// every instance of the block.
  TriggerInstruction programmed;
  /// Actual execution schedule of this instance.
  std::vector<ExecEvent> events;
  /// Run-compressed view of \p events (derived). make_block_instance fills
  /// it as it generates, so the shared, read-only trace carries the decoded
  /// runs into every sweep point; hand-built instances may call
  /// decode_runs(events, runs). Empty = not decoded yet; run_block and
  /// derive_trigger then derive it on the fly (decoded_runs). Mutating
  /// \p events invalidates this — decode again (or clear it) afterwards.
  std::vector<ExecRun> runs;
  /// Non-kernel cycles after the last kernel execution.
  Cycles tail_gap = 0;

  std::size_t executions_of(KernelId k) const {
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.kernel == k) ++n;
    }
    return n;
  }
};

struct ApplicationTrace {
  std::string name;
  std::vector<FunctionalBlockInstance> blocks;

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.events.size();
    return n;
  }
};

/// Decodes \p events into maximal same-kernel runs, appending to \p runs
/// (cleared first).
void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs);

/// The run-compressed view every run-walking reader uses: instance.runs when
/// it is decoded (non-empty and ending at the last event), otherwise the
/// events decoded into \p scratch (hand-built instances that were never
/// decoded). The test is cheap, not a proof: runs left stale by a mutation
/// that keeps the event count read as decoded — hence the contract on
/// FunctionalBlockInstance::runs.
const std::vector<ExecRun>& decoded_runs(
    const FunctionalBlockInstance& instance, std::vector<ExecRun>& scratch);

/// Derives the programmed trigger instruction of a block instance from its
/// schedule, assuming RISC-mode execution latencies (this is exactly what an
/// offline profiling run would measure): e = execution count, tf = cycles
/// from block start to the first execution start, tb = average gap between
/// the end of one execution and the start of the next of the same kernel.
/// Walks the run-compressed view (decoded_runs), one step per run, so it
/// inherits the staleness contract of FunctionalBlockInstance::runs: after
/// mutating the events, decode again or clear the runs before calling it.
/// Throws std::invalid_argument for a kernel beyond the latency table.
TriggerInstruction derive_trigger(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel);

}  // namespace mrts
