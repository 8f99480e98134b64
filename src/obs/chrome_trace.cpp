#include "obs/chrome_trace.h"

#include <cstdio>

#include "common/json.h"

namespace rpm::obs {

void append_chrome_event(std::string& out, const ChromeEvent& e) {
  if (!out.empty()) out += ',';
  out += "{\"name\":";
  json::append_quoted(out, e.name);
  out += ",\"cat\":";
  json::append_quoted(out, e.cat);
  out += ",\"ph\":";
  json::append_quoted(out, std::string_view(&e.ph, 1));
  out += ",\"pid\":" + std::to_string(e.pid) +
         ",\"tid\":" + std::to_string(e.tid);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                static_cast<double>(e.ts) / 1e3);
  out += buf;
  if (e.ph == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(e.dur) / 1e3);
    out += buf;
  } else {
    out += ",\"s\":\"g\"";
  }
  if (!e.args.empty()) {
    out += ",\"args\":";
    out += e.args;
  }
  out += '}';
}

std::string chrome_trace(std::initializer_list<std::string_view> event_lists) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const std::string_view events : event_lists) {
    if (events.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += events;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace rpm::obs
