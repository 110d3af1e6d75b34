#pragma once
/// \file timing_rts.h
/// Forwarding RuntimeSystem wrapper that times a run-time system from the
/// outside: on_trigger, execute_events and on_block_end each run inside a
/// ledger span named by the caller; every other virtual is forwarded
/// untouched. The simulator sees the wrapped system's exact behaviour (the
/// self-test in tests/selftest.cpp pins results and trace bytes), so the
/// spans time the same program the untraced runs execute.

#include "ledger.h"
#include "rts/rts_interface.h"

namespace perfbench {

/// Span names one wrapped system reports under.
struct RtsSpanNames {
  const char* trigger;
  const char* exec;
  const char* block_end;
};

inline constexpr RtsSpanNames kHeuristicSpans{
    "rts.trigger.heuristic", "rts.exec", "rts.block_end"};
inline constexpr RtsSpanNames kOptimalSpans{
    "rts.trigger.optimal", "rts.exec", "rts.block_end"};
inline constexpr RtsSpanNames kBaselineSpans{
    "baselines.trigger", "baselines.exec", "baselines.block_end"};

class TimingRts final : public mrts::RuntimeSystem {
 public:
  TimingRts(mrts::RuntimeSystem& inner, Ledger* ledger, RtsSpanNames names)
      : inner_(inner), ledger_(ledger), names_(names) {}

  std::string name() const override { return inner_.name(); }

  mrts::SelectionOutcome on_trigger(const mrts::TriggerInstruction& programmed,
                                    mrts::Cycles now) override {
    Span span(ledger_, names_.trigger);
    return inner_.on_trigger(programmed, now);
  }

  mrts::ExecOutcome execute_kernel(mrts::KernelId k,
                                   mrts::Cycles now) override {
    return inner_.execute_kernel(k, now);
  }

  mrts::Cycles execute_run(mrts::KernelId k, mrts::Cycles cursor,
                           const mrts::ExecEvent* events, std::size_t n,
                           mrts::Cycles gap_total,
                           std::uint64_t* impl_executions,
                           mrts::Cycles* impl_cycles,
                           mrts::Cycles* first_exec_start) override {
    return inner_.execute_run(k, cursor, events, n, gap_total,
                              impl_executions, impl_cycles, first_exec_start);
  }

  mrts::Cycles execute_events(const mrts::ExecEvent* events,
                              const mrts::ExecRun* runs, std::size_t num_runs,
                              mrts::Cycles cursor,
                              std::uint64_t* impl_executions,
                              mrts::Cycles* impl_cycles,
                              mrts::ObservationSink& obs) override {
    Span span(ledger_, names_.exec);
    return inner_.execute_events(events, runs, num_runs, cursor,
                                 impl_executions, impl_cycles, obs);
  }

  void on_block_end(const mrts::BlockObservation& observed,
                    mrts::Cycles now) override {
    Span span(ledger_, names_.block_end);
    inner_.on_block_end(observed, now);
  }

  void reset() override { inner_.reset(); }

  void attach_observability(mrts::TraceRecorder* trace,
                            mrts::CounterRegistry* counters) override {
    inner_.attach_observability(trace, counters);
  }

  bool attach_fault_model(mrts::FaultModel* model) override {
    return inner_.attach_fault_model(model);
  }

 private:
  mrts::RuntimeSystem& inner_;
  Ledger* ledger_;
  RtsSpanNames names_;
};

}  // namespace perfbench
