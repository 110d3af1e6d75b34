#pragma once
/// \file checks.h
/// Exact-equality predicates over simulator results, used by the
/// benchmark's repeat/oracle/golden checks and by its self-test.

#include "arch/fabric_manager.h"
#include "sim/app_simulator.h"
#include "sim/cmp.h"

namespace perfbench {

inline bool same_run(const mrts::AppRunResult& a,
                     const mrts::AppRunResult& b) {
  return a.rts_name == b.rts_name && a.total_cycles == b.total_cycles &&
         a.blocking_overhead == b.blocking_overhead &&
         a.block_cycles == b.block_cycles &&
         a.impl_executions == b.impl_executions &&
         a.impl_cycles == b.impl_cycles;
}

inline bool same_reconfig(const mrts::ReconfigStats& a,
                          const mrts::ReconfigStats& b) {
  return a.fg_loads == b.fg_loads && a.cg_loads == b.cg_loads &&
         a.fg_bytes == b.fg_bytes && a.cg_bytes == b.cg_bytes &&
         a.cancelled_loads == b.cancelled_loads &&
         a.reused_instances == b.reused_instances;
}

inline std::uint64_t executions(const mrts::AppRunResult& r) {
  std::uint64_t n = 0;
  for (const std::uint64_t e : r.impl_executions) n += e;
  return n;
}

inline bool same_task_run(const mrts::TaskRunResult& a,
                          const mrts::TaskRunResult& b) {
  return a.name == b.name && a.finished_at == b.finished_at &&
         a.active_cycles == b.active_cycles &&
         a.block_cycles == b.block_cycles &&
         a.impl_executions == b.impl_executions;
}

inline bool same_cmp(const mrts::CmpResult& a, const mrts::CmpResult& b) {
  if (a.total_cycles != b.total_cycles || a.cores.size() != b.cores.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    const mrts::CmpCoreResult& x = a.cores[i];
    const mrts::CmpCoreResult& y = b.cores[i];
    if (x.interconnect_cycles != y.interconnect_cycles ||
        x.port_wait_cycles != y.port_wait_cycles ||
        x.reconfig_slices != y.reconfig_slices ||
        x.run.total_cycles != y.run.total_cycles ||
        x.run.tasks.size() != y.run.tasks.size()) {
      return false;
    }
    for (std::size_t t = 0; t < x.run.tasks.size(); ++t) {
      if (!same_task_run(x.run.tasks[t].run, y.run.tasks[t].run)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
