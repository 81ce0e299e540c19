#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a plansep module, kept in
// memory, and written out at the end as Chrome trace-event JSON (the same
// format obs/trace_export writes, so Perfetto loads both side by side).
//
// A span has a name, start, end, parent span and unit id. Unit spans
// ("unit.<kind>") group the layer spans of one timed unit; a layer's self
// time is its duration minus the time its child spans cover.

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    int unit = -1;    ///< id of the enclosing unit span, -1 outside units
  };

  /// A disabled tracer records nothing; spans then cost one branch, which
  /// is how the traced run times the same units untraced.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its token (-1 when disabled).
  int begin(const std::string& name);
  /// Closes the span opened by `token`.
  void end(int token);

  /// Runs f inside a span named `name` and returns its result.
  template <class F>
  auto span(const std::string& name, F&& f) {
    struct Closer {
      Tracer* t;
      int tok;
      ~Closer() { t->end(tok); }
    } closer{this, begin(name)};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer name inside unit `unit`, in milliseconds.
  std::map<std::string, double> self_ms(int unit) const;
  /// Wall time of unit span `unit`, in milliseconds.
  double unit_ms(int unit) const;
  /// Unit span ids whose name is "unit.<kind>".
  std::vector<int> units(const std::string& kind) const;

  /// Chrome trace-event JSON: one "X" slice per span on one track.
  std::string chrome_json() const;

 private:
  double now_us() const;

  bool enabled_ = true;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
