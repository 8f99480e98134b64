// chrome://tracing ("Trace Event Format") writer for the two trace buffers:
// obs::FlightRecorder (simulated time: pid 1 markers, pid 2 probe tracks)
// and prof::Profiler (wall time: pid 3 stage tracks). Both write their
// events through begin_chrome_event; write_chrome_trace() streams them into
// one document that chrome://tracing and Perfetto load.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "common/json.h"
#include "common/types.h"

namespace rpm::obs {

/// One trace event. `ts` and `dur` are nanoseconds, written as microseconds
/// with three decimals. ph 'X' is a complete span and writes "dur"; ph 'i'
/// is an instant, global ('g') or thread ('t') scoped.
struct ChromeEvent {
  std::string_view name;
  std::string_view cat;
  char ph = 'X';
  char scope = 'g';
  int pid = 0;
  std::uint64_t tid = 0;
  TimeNs ts = 0;
  TimeNs dur = 0;
};

/// Opens `e` as an object in the writer's open array. The caller may add an
/// "args" member, then closes the event with end_object().
void begin_chrome_event(json::Writer& w, const ChromeEvent& e);

/// Streams {"traceEvents":[...],"displayTimeUnit":"ms"}; `events` writes
/// the trace events into the open array.
void write_chrome_trace(json::Writer& w,
                        const std::function<void(json::Writer&)>& events);

}  // namespace rpm::obs
