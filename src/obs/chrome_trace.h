// chrome://tracing ("Trace Event Format") writer for the two trace buffers:
// obs::FlightRecorder (simulated time: pid 1 markers, pid 2 probe tracks)
// and prof::Profiler (wall time: pid 3 stage tracks). Both render their
// events through append_chrome_event; chrome_trace() wraps the event lists
// in one document that chrome://tracing and Perfetto load.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/types.h"

namespace rpm::obs {

/// One trace event. `ts` and `dur` are nanoseconds, written as microseconds
/// with three decimals. ph 'X' is a complete span and writes "dur"; ph 'i'
/// is a global-scope instant. `args`, when non-empty, is a rendered JSON
/// object.
struct ChromeEvent {
  std::string_view name;
  std::string_view cat;
  char ph = 'X';
  int pid = 0;
  std::uint64_t tid = 0;
  TimeNs ts = 0;
  TimeNs dur = 0;
  std::string_view args;
};

/// Appends `e` to a comma-joined event list.
void append_chrome_event(std::string& out, const ChromeEvent& e);

/// {"traceEvents":[...],"displayTimeUnit":"ms"} from comma-joined event
/// lists (FlightRecorder::chrome_events(), prof::Profiler::chrome_events());
/// empty lists are skipped.
std::string chrome_trace(std::initializer_list<std::string_view> event_lists);

}  // namespace rpm::obs
