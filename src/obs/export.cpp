#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/trace.hpp"

namespace hare::obs {

namespace {

void write_escaped(std::ostream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';  // other control chars: not worth the \u escape
        } else {
          out << c;
        }
    }
  }
}

/// Microseconds with fixed sub-µs precision: default stream formatting
/// would switch to scientific notation (and lose ordering) once a trace
/// runs past a second.
std::string to_us(std::uint64_t ns) {
  std::ostringstream text;
  text.setf(std::ios::fixed);
  text.precision(3);
  text << static_cast<double>(ns) / 1000.0;
  return text.str();
}

void write_event(std::ostream& out, const TraceEvent& event,
                 std::uint32_t tid, bool& first) {
  out << (first ? "\n" : ",\n") << "    {\"name\": \"";
  write_escaped(out, event.name ? event.name : "?");
  out << "\", \"cat\": \"";
  write_escaped(out, event.category ? event.category : "?");
  out << "\", \"ph\": \""
      << (event.phase == Phase::Instant ? "i" : "X") << "\", \"ts\": "
      << to_us(event.start_ns) << ", \"pid\": 1, \"tid\": " << tid;
  if (event.phase == Phase::Instant) {
    out << ", \"s\": \"t\"";
  } else {
    out << ", \"dur\": " << to_us(event.end_ns - event.start_ns);
  }
  const bool has_arg = event.arg_name != nullptr;
  const bool has_detail = !event.detail.empty();
  if (has_arg || has_detail) {
    out << ", \"args\": {";
    if (has_arg) {
      out << "\"";
      write_escaped(out, event.arg_name);
      out << "\": " << event.arg_value;
    }
    if (has_detail) {
      out << (has_arg ? ", " : "") << "\"detail\": \"";
      write_escaped(out, event.detail);
      out << "\"";
    }
    out << "}";
  }
  out << "}";
  first = false;
}

}  // namespace

void write_chrome_trace(std::ostream& out) {
  const auto rings = Tracer::instance().rings();
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& ring : rings) {
    out << (first ? "\n" : ",\n") << "    {\"name\": \"thread_name\", "
        << "\"ph\": \"M\", \"pid\": 1, \"tid\": " << ring->tid()
        << ", \"args\": {\"name\": \"";
    write_escaped(out, ring->thread_name().empty()
                           ? "thread-" + std::to_string(ring->tid())
                           : ring->thread_name());
    out << "\"}}";
    first = false;
    for (const auto& event : ring->snapshot()) {
      write_event(out, event, ring->tid(), first);
    }
    if (const std::uint64_t dropped = ring->dropped()) {
      out << ",\n    {\"name\": \"obs.dropped_events\", \"cat\": \"obs\", "
          << "\"ph\": \"i\", \"ts\": 0, \"pid\": 1, \"tid\": " << ring->tid()
          << ", \"s\": \"t\", \"args\": {\"count\": " << dropped << "}}";
    }
  }
  out << "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  write_chrome_trace(file);
  return static_cast<bool>(file);
}

namespace {

struct PathStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Rebuild nesting per thread from interval containment: events sorted by
/// (start, longest-first) visit parents before their children, and a stack
/// of currently open spans yields each event's call path.
void accumulate_thread(const std::vector<TraceEvent>& events,
                       std::map<std::string, PathStats>& paths) {
  std::vector<const TraceEvent*> spans;
  spans.reserve(events.size());
  for (const auto& event : events) {
    if (event.phase == Phase::Complete) spans.push_back(&event);
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->end_ns > b->end_ns;
            });
  std::vector<const TraceEvent*> open;
  std::string path;
  for (const TraceEvent* span : spans) {
    while (!open.empty() && span->start_ns >= open.back()->end_ns) {
      open.pop_back();
    }
    path.clear();
    for (const TraceEvent* ancestor : open) {
      path += ancestor->name;
      path += ';';
    }
    path += span->name;
    PathStats& stats = paths[path];
    ++stats.count;
    stats.total_ns += span->end_ns - span->start_ns;
    open.push_back(span);
  }
}

}  // namespace

std::string flame_summary() {
  std::map<std::string, PathStats> paths;
  std::ostringstream out;
  for (const auto& ring : Tracer::instance().rings()) {
    accumulate_thread(ring->snapshot(), paths);
    // A wrapped ring lost its oldest spans, so its totals undercount.
    if (const std::uint64_t dropped = ring->dropped()) {
      out << "# obs.dropped_events tid=" << ring->tid()
          << " count=" << dropped
          << " (ring wrapped: this thread's earliest spans are missing; "
             "HARE_OBS_RING sets the ring capacity)\n";
    }
  }
  std::vector<std::pair<std::string, PathStats>> rows(paths.begin(),
                                                      paths.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });
  out << "total_ms     count  path\n";
  for (const auto& [path, stats] : rows) {
    std::ostringstream ms;
    ms.setf(std::ios::fixed);
    ms.precision(3);
    ms << static_cast<double>(stats.total_ns) / 1e6;
    std::string ms_text = ms.str();
    if (ms_text.size() < 12) ms_text.append(12 - ms_text.size(), ' ');
    std::string count_text = std::to_string(stats.count);
    if (count_text.size() < 6) {
      count_text.insert(0, 6 - count_text.size(), ' ');
    }
    out << ms_text << ' ' << count_text << "  " << path << '\n';
  }
  return out.str();
}

bool write_flame_summary_file(const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << flame_summary();
  return static_cast<bool>(file);
}

}  // namespace hare::obs
