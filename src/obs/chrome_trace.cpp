#include "obs/chrome_trace.h"

namespace rpm::obs {

void begin_chrome_event(json::Writer& w, const ChromeEvent& e) {
  w.begin_object()
      .key("name").string(e.name)
      .key("cat").string(e.cat)
      .key("ph").string(std::string_view(&e.ph, 1))
      .key("pid").integer(e.pid)
      .key("tid").integer(e.tid)
      .key("ts").fixed(static_cast<double>(e.ts) / 1e3, 3);
  if (e.ph == 'X') {
    w.key("dur").fixed(static_cast<double>(e.dur) / 1e3, 3);
  } else {
    w.key("s").string(std::string_view(&e.scope, 1));
  }
}

void write_chrome_trace(json::Writer& w,
                        const std::function<void(json::Writer&)>& events) {
  w.begin_object().key("traceEvents").begin_array();
  events(w);
  w.end_array().key("displayTimeUnit").string("ms").end_object();
}

}  // namespace rpm::obs
