#pragma once
/// \file cmp_workload.h
/// The cmp_scaleout workload generator (bench_fig15_cmp's): one synthetic
/// kernel per core in a combined library, and per core a trace of
/// kCmpBlocksPerCore blocks drawn from Rng(seed_base + core).

#include <cstdint>
#include <vector>

#include "isa/ise_library.h"
#include "sim/schedule.h"

namespace perfbench {

inline constexpr unsigned kCmpBlocksPerCore = 8;

struct CmpWorkload {
  mrts::IseLibrary library;
  std::vector<mrts::ApplicationTrace> traces;
};

CmpWorkload generate_cmp_workload(unsigned cores, std::uint64_t seed_base);

}  // namespace perfbench
