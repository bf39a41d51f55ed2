// Raw measurement record of one workload run, plus the span recorder used
// by traced runs. perfbench_workloads fills a Report and writes it as JSON;
// perfbench/metrics.py turns it into the published metrics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds from std::chrono::steady_clock.
std::int64_t now_ns();
double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns);

/// One span: a call into a library layer, named `<module>.<function>`.
/// `op` is the pass, setup repetition or request it belongs to.
struct Span {
  std::string name;
  std::string op;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 = root
};

/// In-memory span store. When disabled every call is a no-op, so the same
/// workload code serves traced and untraced passes. Thread-safe: service
/// clients record spans from several threads at once.
class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const std::string& op,
          int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost open span on this thread.
  /// An empty `op` inherits the parent's.
  Scope span(const char* name, const std::string& op = "");
  /// Opens a span with an explicit parent (for spans on another thread).
  Scope child_of(int parent, const char* name, const std::string& op);

  /// Innermost open span on this thread (-1 when none or disabled).
  int innermost() const;

  std::vector<Span> spans() const;

 private:
  int open(const char* name, const std::string& op, int parent);
  void close(int id);

  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Everything one run measured. Series hold raw samples; values hold
/// scalars (exact counts, admin counters); env holds the run's settings.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::map<std::string, std::string> env;
  std::vector<Span> spans;

  void add(const std::string& key, double sample) {
    series[key].push_back(sample);
  }
  /// Records `what` as a failed output check when !ok; returns ok. The
  /// caller counts the failed pass or request in `failed`.
  bool check(bool ok, const std::string& what);

  /// Writes the report as one JSON object. Returns false on I/O failure.
  bool write_json(const std::string& path) const;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mib();

}  // namespace perfbench
