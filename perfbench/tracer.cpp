#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  if (name.rfind("unit.", 0) == 0) {
    s.unit = id;
  } else if (s.parent >= 0) {
    s.unit = spans_[static_cast<std::size_t>(s.parent)].unit;
  }
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  return id;
}

void Tracer::end(int token) {
  if (token < 0) return;
  spans_[static_cast<std::size_t>(token)].end_us = now_us();
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_ms(int unit) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.unit != unit || static_cast<int>(i) == unit) continue;
    out[s.name] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  return out;
}

double Tracer::unit_ms(int unit) const {
  const Span& s = spans_[static_cast<std::size_t>(unit)];
  return (s.end_us - s.start_us) / 1000.0;
}

std::vector<int> Tracer::units(const std::string& kind) const {
  std::vector<int> out;
  const std::string name = "unit." + kind;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"perfbench layers\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"unit\":%d}}",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                  s.parent, s.unit);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
