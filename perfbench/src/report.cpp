#include "report.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Innermost open span of the calling thread; spans opened by Tracer::span
// nest under it. The benchmark runs one tracer per process.
thread_local int t_current_span = -1;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const std::string& op,
                     int parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  id_ = tracer_->open(name, op, parent);
  saved_parent_ = t_current_span;
  t_current_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_->close(id_);
  t_current_span = saved_parent_;
}

Tracer::Scope Tracer::span(const char* name, const std::string& op) {
  return Scope(this, name, op, t_current_span);
}

Tracer::Scope Tracer::child_of(int parent, const char* name,
                               const std::string& op) {
  return Scope(this, name, op, parent);
}

int Tracer::innermost() const { return enabled_ ? t_current_span : -1; }

int Tracer::open(const char* name, const std::string& op, int parent) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string& owner =
      op.empty() && parent >= 0 ? spans_[static_cast<std::size_t>(parent)].op
                                : op;
  spans_.push_back(Span{name, owner, t, t, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

bool Report::write_json(const std::string& path) const {
  std::ostringstream o;
  o << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
    << ", \"trace\": " << (trace ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ",\n \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    o << (i ? ", " : "") << quote(failures[i]);
  }
  o << "],\n \"env\": {";
  bool first = true;
  for (const auto& [k, v] : env) {
    o << (first ? "" : ", ") << quote(k) << ": " << quote(v);
    first = false;
  }
  o << "},\n \"values\": {";
  first = true;
  for (const auto& [k, v] : values) {
    o << (first ? "" : ", ") << quote(k) << ": " << number(v);
    first = false;
  }
  o << "},\n \"series\": {";
  first = true;
  for (const auto& [k, samples] : series) {
    o << (first ? "" : ",\n  ") << quote(k) << ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      o << (i ? ", " : "") << number(samples[i]);
    }
    o << "]";
    first = false;
  }
  o << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? ",\n  " : "") << "[" << quote(s.name) << ", " << quote(s.op)
      << ", " << s.start_ns << ", " << s.end_ns << ", " << s.parent << "]";
  }
  o << "]}\n";
  std::ofstream f(path);
  f << o.str();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
