// hare::obs exporters.
//
// * Chrome/Perfetto `trace_event` JSON — load in chrome://tracing (or
//   ui.perfetto.dev). Spans become "X" (complete) events with microsecond
//   timestamps relative to the tracer epoch; instant events (log records)
//   become "i" events carrying their text in args.detail; each thread gets
//   a "M" thread_name metadata record.
// * Flamegraph-style text summary — per-thread span nesting is rebuilt
//   from start/end containment, then identical call paths are merged into
//   `total_ms  count  path;like;this` lines, heaviest first.
#pragma once

#include <iosfwd>
#include <string>

namespace hare::obs {

/// Serialize every registered ring as Chrome trace JSON.
void write_chrome_trace(std::ostream& out);
[[nodiscard]] bool write_chrome_trace_file(const std::string& path);

/// Aggregated call-path summary of all recorded spans. Each thread whose
/// ring wrapped first gets a `# obs.dropped_events tid=T count=N` line: its
/// oldest spans are gone, so its totals undercount.
[[nodiscard]] std::string flame_summary();
[[nodiscard]] bool write_flame_summary_file(const std::string& path);

}  // namespace hare::obs
