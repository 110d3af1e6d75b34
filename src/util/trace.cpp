#include "util/trace.h"

#include <array>
#include <fstream>
#include <istream>
#include <set>

#include "isa/ise_library.h"
#include "util/parse_number.h"
#include "util/text_buffer.h"

namespace mrts {
namespace {

constexpr std::array<const char*, kNumTraceEventKinds> kKindNames = {
    "block_begin",     "block_end",         "ecu_decision",
    "ecu_upgrade",     "mono_cg_attempt",   "selector_eval",
    "selector_pick",   "mpu_error",         "reconfig_start",
    "reconfig_complete", "reconfig_cancel", "cg_context_switch",
    "occupancy",
    // Fault-injection kinds use the dotted counter-style names so the
    // trace-summary table matches the counter names one-to-one.
    "fault.inject",    "reconfig.retry",    "prc.quarantined",
    "scrub.repair",    "selector.cache",
    // Multi-tenant arbitration kinds (dotted, matching their counters).
    "tenant.eviction", "tenant.quota_hit",
    // Scheduler admission/completion timestamps (dotted, matching their
    // counters) — the raw material of the per-tenant latency percentiles in
    // obs/run_report.h.
    "tenant.admitted", "tenant.completed",
    // Migration + checkpoint/restore kinds (dotted, matching their
    // counters): the robustness timeline of defragmentation passes and
    // crash-resilient runs.
    "migration.start", "migration.complete",
    "snapshot.save",   "snapshot.restore",
    // CMP scheduler kinds (sim/cmp.h): per-core slices and operand traffic
    // to the shared fabric over the interconnect.
    "core.slice",      "core.transfer",
};

/// Must match ImplKind in rts/rts_interface.h (util cannot include rts
/// headers without inverting the layering); tests/test_trace.cpp pins the
/// correspondence against to_string(ImplKind).
constexpr std::array<const char*, 5> kImplKindNames = {
    "RISC", "monoCG", "intermediate", "full-ISE", "covered-ISE"};

const char* impl_kind_name(std::uint32_t kind) {
  return kind < kImplKindNames.size() ? kImplKindNames[kind] : "?";
}

// Label pieces go straight into the output buffer. Library names are user
// data and are JSON-escaped; the literal parts and numbers never need it.

void put_kernel(TextBuffer& out, const IseLibrary* lib, std::uint32_t k) {
  if (lib != nullptr && k < lib->num_kernels()) {
    out.json_escaped(lib->kernel(KernelId{k}).name);
  } else {
    out << "kernel" << k;
  }
}

void put_ise(TextBuffer& out, const IseLibrary* lib, std::uint32_t id) {
  if (lib != nullptr && id < lib->num_ises()) {
    out.json_escaped(lib->ise(IseId{id}).name);
  } else {
    out << "ise" << id;
  }
}

void put_dp(TextBuffer& out, const IseLibrary* lib, std::uint32_t id) {
  if (lib != nullptr && id < lib->data_paths().size()) {
    out.json_escaped(lib->data_paths()[DataPathId{id}].name);
  } else {
    out << "dp" << id;
  }
}

/// Human-readable event label for both exporters, JSON-escaped.
void put_label(TextBuffer& out, const TraceEvent& e, const IseLibrary* lib) {
  switch (e.kind) {
    case TraceEventKind::kBlockBegin:
    case TraceEventKind::kBlockEnd:
      out << "FB" << e.arg0;
      return;
    case TraceEventKind::kEcuDecision:
    case TraceEventKind::kEcuUpgrade:
      put_kernel(out, lib, e.arg0);
      out << ": " << impl_kind_name(e.arg1);
      return;
    case TraceEventKind::kMonoCgAttempt:
      put_kernel(out, lib, e.arg0);
      out << (e.arg1 != 0 ? ": monoCG acquired" : ": monoCG unavailable");
      return;
    case TraceEventKind::kSelectorEval:
    case TraceEventKind::kSelectorPick:
      put_kernel(out, lib, e.arg0);
      out << '/';
      put_ise(out, lib, e.arg1);
      return;
    case TraceEventKind::kMpuError:
      put_kernel(out, lib, e.arg1);
      return;
    case TraceEventKind::kReconfigStart:
    case TraceEventKind::kReconfigComplete:
    case TraceEventKind::kCgContextSwitch:
      put_dp(out, lib, e.arg0);
      return;
    case TraceEventKind::kReconfigCancel:
      out << "cancelled loads";
      return;
    case TraceEventKind::kOccupancy:
      out << "fabric occupancy";
      return;
    case TraceEventKind::kFaultInject:
      put_dp(out, lib, e.arg0);
      out << ": fault injected";
      return;
    case TraceEventKind::kReconfigRetry:
      put_dp(out, lib, e.arg0);
      out << ": retry " << e.arg1;
      return;
    case TraceEventKind::kQuarantine:
      out << (e.arg1 == static_cast<std::uint32_t>(Grain::kFine) ? "PRC "
                                                                 : "CG fabric ")
          << e.arg0 << " quarantined";
      return;
    case TraceEventKind::kScrubRepair:
      put_dp(out, lib, e.arg0);
      out << ": scrub repair";
      return;
    case TraceEventKind::kSelectorCacheStats:
      out << "profit cache hits/misses";
      return;
    case TraceEventKind::kTenantEviction:
      out << "tenant " << static_cast<std::uint64_t>(e.v0)
          << " evicted tenant " << e.arg0;
      return;
    case TraceEventKind::kTenantQuotaHit:
      out << "eviction redirected onto over-quota tenant " << e.arg0;
      return;
    case TraceEventKind::kTenantAdmission:
      out << "task " << e.arg0 << (e.arg1 != 0 ? " admitted" : " bounced");
      return;
    case TraceEventKind::kTenantCompletion:
      out << "task " << e.arg0 << " completed";
      return;
    case TraceEventKind::kMigrationStart:
    case TraceEventKind::kMigrationComplete:
      put_dp(out, lib, e.arg0);
      out << ": "
          << (e.arg1 == static_cast<std::uint32_t>(Grain::kFine) ? "PRC"
                                                                 : "CG fabric")
          << ' ' << static_cast<std::uint64_t>(e.v0) << " -> "
          << static_cast<std::uint64_t>(e.v1);
      return;
    case TraceEventKind::kSnapshotSave:
      out << "checkpoint #" << e.arg0 << " saved";
      return;
    case TraceEventKind::kSnapshotRestore:
      out << "checkpoint #" << e.arg0 << " restored";
      return;
    case TraceEventKind::kCoreSlice:
      out << "core " << e.arg0 << ": " << e.arg1 << " block(s)";
      return;
    case TraceEventKind::kCoreTransfer:
      out << "core " << e.arg0 << ": " << e.arg1 << " transfer(s)";
      return;
  }
  out << '?';
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "?";
}

std::optional<TraceEventKind> trace_kind_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<TraceEventKind>(i);
  }
  return std::nullopt;
}

std::string track_name(std::int32_t track) {
  switch (track) {
    case kTrackApp: return "application";
    case kTrackEcu: return "ECU decisions";
    case kTrackSelector: return "ISE selector";
    case kTrackMpu: return "MPU forecasts";
    default: break;
  }
  if (track >= kTrackCoreBase) {
    return "core " + std::to_string(track - kTrackCoreBase);
  }
  if (track >= kTrackCgBase) {
    return "CG fabric " + std::to_string(track - kTrackCgBase);
  }
  if (track >= kTrackFgBase) {
    return "PRC " + std::to_string(track - kTrackFgBase);
  }
  return "track " + std::to_string(track);
}

void TraceRecorder::record(const TraceEvent& event) {
  events_.push_back(event);
  if (event.tenant == 0 && default_tenant_ != 0) {
    events_.back().tenant = default_tenant_;
  }
}

std::size_t TraceRecorder::count(TraceEventKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

double trace_cycles_to_us(Cycles c) {
  return static_cast<double>(c) / kCoreClockHz * 1.0e6;
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const IseLibrary* lib) {
  TextBuffer out(os);
  out << "{\"traceEvents\":[\n"
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"mRTS simulation\"}}";

  // Name every track that appears; sort index keeps the RTS tracks on top
  // and the fabric tracks grouped below.
  std::set<std::int32_t> tracks;
  for (const auto& e : events) tracks.insert(e.track);
  for (std::int32_t t : tracks) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":\"";
    out.json_escaped(track_name(t));
    out << "\"}},\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":"
        << t << ",\"args\":{\"sort_index\":" << t << "}}";
  }

  for (const auto& e : events) {
    out << ",\n{\"name\":\"";
    put_label(out, e, lib);
    out << "\",\"cat\":\"" << to_string(e.kind);
    if (e.kind == TraceEventKind::kOccupancy) {
      // Counter track: Perfetto renders it as a stacked area chart.
      out << "\",\"ph\":\"C\",\"pid\":1,\"ts\":"
          << JsonNumber{trace_cycles_to_us(e.at)}
          << ",\"args\":{\"reserved_prcs\":" << JsonNumber{e.v0}
          << ",\"reserved_cg\":" << JsonNumber{e.v1} << "}}";
      continue;
    }
    out << "\",\"pid\":1,\"tid\":" << e.track
        << ",\"ts\":" << JsonNumber{trace_cycles_to_us(e.at)};
    if (e.duration > 0) {
      out << ",\"ph\":\"X\",\"dur\":"
          << JsonNumber{trace_cycles_to_us(e.duration)};
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << ",\"args\":{\"at_cycles\":" << e.at << ",\"arg0\":" << e.arg0
        << ",\"arg1\":" << e.arg1 << ",\"tenant\":" << e.tenant
        << ",\"v0\":" << JsonNumber{e.v0} << ",\"v1\":" << JsonNumber{e.v1}
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events,
                       const IseLibrary* lib) {
  TextBuffer out(os);
  for (const auto& e : events) {
    out << "{\"kind\":\"" << to_string(e.kind) << "\",\"at\":" << e.at
        << ",\"dur\":" << e.duration << ",\"track\":" << e.track
        << ",\"arg0\":" << e.arg0 << ",\"arg1\":" << e.arg1
        << ",\"tenant\":" << e.tenant << ",\"v0\":" << JsonNumber{e.v0}
        << ",\"v1\":" << JsonNumber{e.v1} << ",\"label\":\"";
    put_label(out, e, lib);
    out << "\"}\n";
  }
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const IseLibrary* lib) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, events, lib);
  return static_cast<bool>(os);
}

bool write_trace_jsonl_file(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            const IseLibrary* lib) {
  std::ofstream os(path);
  if (!os) return false;
  write_trace_jsonl(os, events, lib);
  return static_cast<bool>(os);
}

namespace {

/// Extracts the raw token following `"key":` in a flat one-line JSON object;
/// nullopt when the key is absent.
std::optional<std::string_view> json_token(std::string_view line,
                                           const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = begin;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\') ++end;  // skip escaped char
      ++end;
    }
    if (end >= line.size()) return std::nullopt;  // unterminated string
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

/// Optional numeric field: absent leaves \p out as is; present must parse.
template <typename T>
bool parse_field(std::string_view line, const char* key, T* out) {
  const auto token = json_token(line, key);
  return !token || parse_number(*token, out);
}

}  // namespace

std::optional<TraceEvent> parse_trace_jsonl_line(const std::string& line) {
  // A truncated write can leave a prefix whose kind/at tokens still parse;
  // requiring the object's braces catches lines cut off mid-token.
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] != '{') return std::nullopt;
  const auto last = line.find_last_not_of(" \t\r");
  if (line[last] != '}') return std::nullopt;
  const auto kind_token = json_token(line, "kind");
  const auto at_token = json_token(line, "at");
  if (!kind_token || !at_token) return std::nullopt;
  const auto kind = trace_kind_from_string(*kind_token);
  if (!kind) return std::nullopt;

  TraceEvent e;
  e.kind = *kind;
  // "tenant" is optional so traces written before the field existed still
  // parse; the writer always emits the others.
  if (!parse_number(*at_token, &e.at) ||
      !parse_field(line, "dur", &e.duration) ||
      !parse_field(line, "track", &e.track) ||
      !parse_field(line, "arg0", &e.arg0) ||
      !parse_field(line, "arg1", &e.arg1) ||
      !parse_field(line, "tenant", &e.tenant) ||
      !parse_field(line, "v0", &e.v0) || !parse_field(line, "v1", &e.v1)) {
    return std::nullopt;
  }
  return e;
}

ParsedTrace parse_trace_jsonl(std::istream& in) {
  ParsedTrace parsed;
  std::string line;
  while (std::getline(in, line)) {
    ++parsed.lines;
    if (line.empty()) continue;  // blank line / trailing newline
    auto event = parse_trace_jsonl_line(line);
    if (!event) {
      parsed.bad_line = parsed.lines;
      break;
    }
    parsed.events.push_back(*event);
  }
  return parsed;
}

TraceSummary summarize_trace_jsonl(std::istream& in) {
  TraceSummary summary;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto event = parse_trace_jsonl_line(line);
    if (!event) {
      ++summary.parse_errors;
      if (summary.first_bad_line == 0) summary.first_bad_line = line_number;
      continue;
    }
    ++summary.total_events;
    ++summary.per_kind[static_cast<std::size_t>(event->kind)];
    if (event->at < summary.first_cycle) summary.first_cycle = event->at;
    if (event->at + event->duration > summary.last_cycle) {
      summary.last_cycle = event->at + event->duration;
    }
    if (event->duration > 0) {
      summary.span_durations.observe(static_cast<double>(event->duration));
    }
  }
  return summary;
}

}  // namespace mrts
