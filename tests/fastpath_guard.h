#pragma once
// Scoped override of the process-wide simulator fast-path toggle
// (util/fastpath.h) for tests that compare the fast paths against the
// per-event oracle.

#include "util/fastpath.h"

namespace mrts {

/// Sets the toggle for its lifetime and restores the previous setting on
/// destruction, so test order never leaks state.
class FastpathGuard {
 public:
  explicit FastpathGuard(bool enabled) : previous_(fastpath_enabled()) {
    set_fastpath_enabled(enabled);
  }
  ~FastpathGuard() { set_fastpath_enabled(previous_); }
  FastpathGuard(const FastpathGuard&) = delete;
  FastpathGuard& operator=(const FastpathGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace mrts
