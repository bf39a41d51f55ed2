// Service-throughput bench: stands up an in-process ExperimentServer and
// measures end-to-end job throughput over the unix-socket wire protocol,
// emitting BENCH_service.json — the serving-mode perf record next to
// BENCH_engine.json and BENCH_quantum.json.
//
//   ./bench_service_throughput [--smoke] [--out PATH]
//
// Two axes, mirroring how the daemon is actually used:
//
//   * "cases" — fresh-execution throughput: every submit is a distinct
//     spec (the shared seed varies per job), so nothing hits the cache
//     and every job runs through the full path: frame decode -> queue ->
//     worker -> executor -> pop-order commit -> result encode. Measured
//     across server worker counts, each row driven by as many
//     closed-loop clients as it has workers (a fixed client pool would
//     cap the jobs in flight and measure client concurrency instead);
//     the workers=1 row is the speedup baseline.
//   * "sweep" — cache-hit serving rate: one spec is executed once, then
//     hammered with identical submits from 1..C concurrent clients. Every
//     request after the first is served inline from the content-addressed
//     cache without touching the queue, so this row measures the
//     protocol + cache path alone. The bench asserts the hit rate it
//     reports (admin counters) is exactly (requests - 1) / requests.
//
// The server gets a steady_clock tick source — this is a bench binary in
// bench/, outside the src/ wall-clock fence, exactly like the daemon in
// tools/service. Timing of the bench itself also uses steady_clock.
//
// Schema "service_throughput" v1 is validated by
// tools/check_bench_schema.py (CI job bench-gate runs the smoke mode).
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/job_spec.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/thread_pool.hpp"

namespace {

using qdc::service::AdminResult;
using qdc::service::AlgorithmKind;
using qdc::service::ErrorCode;
using qdc::service::ExperimentServer;
using qdc::service::JobSpec;
using qdc::service::ServerOptions;
using qdc::service::ServiceClient;
using qdc::service::TopologyKind;

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0_us) {
  return static_cast<double>(steady_now_us() - t0_us) / 1e6;
}

std::string bench_socket(const char* tag, int variant) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "/tmp/qdc_bench_svc_%d_%s_%d.sock",
                static_cast<int>(::getpid()), tag, variant);
  return buf;
}

ServerOptions server_options(const std::string& socket, int workers) {
  ServerOptions options;
  options.socket_path = socket;
  options.workers = workers;
  options.queue_capacity = 1024;
  options.cache_bytes = 64u << 20;
  options.tick = [] { return steady_now_us(); };
  return options;
}

struct WorkerResult {
  int units = 0;  // workers (cases) or clients (sweep)
  double seconds = 0.0;
  double rate = 0.0;
  double speedup = 1.0;
};

struct CaseSpec {
  std::string name;
  JobSpec base;
  int jobs = 0;
};

struct CaseResult {
  CaseSpec spec;
  std::vector<WorkerResult> results;
};

struct SweepResult {
  int requests = 0;
  int payload_bytes = 0;
  double hit_rate = 0.0;
  std::vector<WorkerResult> results;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "service_throughput: " << message << "\n";
  std::exit(1);
}

/// Splits `jobs` fresh submissions (distinct shared seeds) across
/// `workers` closed-loop client connections against a server with
/// `workers` worker threads; returns wall seconds for the whole batch.
double run_fresh_batch(const CaseSpec& cs, int workers) {
  const int clients = workers;
  const std::string socket = bench_socket(cs.name.c_str(), workers);
  ExperimentServer server(server_options(socket, workers));
  server.start();

  const std::uint64_t t0 = steady_now_us();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client(socket);
      for (int j = c; j < cs.jobs; j += clients) {
        JobSpec spec = cs.base;
        spec.shared_seed ^= 0x100 + static_cast<std::uint64_t>(j);
        const qdc::service::SubmitResult r = client.submit(spec);
        if (r.error != ErrorCode::None ||
            r.status.state != qdc::service::JobState::Done) {
          die("fresh job failed in case " + cs.name + ": " +
              r.error_message);
        }
        if (r.status.cached) die("unexpected cache hit in fresh batch");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = seconds_since(t0);
  server.stop();
  return seconds;
}

CaseResult run_case(const CaseSpec& cs, const std::vector<int>& workers) {
  CaseResult result;
  result.spec = cs;
  for (const int w : workers) {
    WorkerResult wr;
    wr.units = w;
    wr.seconds = run_fresh_batch(cs, w);
    wr.rate = wr.seconds > 0.0 ? static_cast<double>(cs.jobs) / wr.seconds
                               : 0.0;
    result.results.push_back(wr);
  }
  const double base = result.results.front().rate;
  for (WorkerResult& wr : result.results) {
    wr.speedup = base > 0.0 ? wr.rate / base : 1.0;
  }
  return result;
}

/// One warm-up execution, then `requests` identical submits spread over
/// 1..max_clients connections: every one is a cache hit served inline.
SweepResult run_cache_sweep(const JobSpec& spec, int requests,
                            const std::vector<int>& client_counts) {
  SweepResult result;
  result.requests = requests;

  const std::string socket = bench_socket("cache", 0);
  ExperimentServer server(server_options(socket, 1));
  server.start();
  {
    ServiceClient warm(socket);
    const qdc::service::SubmitResult first = warm.submit(spec);
    if (first.error != ErrorCode::None ||
        first.status.state != qdc::service::JobState::Done) {
      die("cache warm-up failed: " + first.error_message);
    }
    result.payload_bytes = static_cast<int>(first.status.result.size());
  }

  for (const int clients : client_counts) {
    const std::uint64_t t0 = steady_now_us();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ServiceClient client(socket);
        for (int j = c; j < requests; j += clients) {
          const qdc::service::SubmitResult r = client.submit(spec);
          if (r.error != ErrorCode::None || !r.status.cached) {
            die("expected a cache hit, got " + r.error_message);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    WorkerResult wr;
    wr.units = clients;
    wr.seconds = seconds_since(t0);
    wr.rate = wr.seconds > 0.0 ? static_cast<double>(requests) / wr.seconds
                               : 0.0;
    result.results.push_back(wr);
  }
  const double base = result.results.front().rate;
  for (WorkerResult& wr : result.results) {
    wr.speedup = base > 0.0 ? wr.rate / base : 1.0;
  }

  // The admin counters must agree with what this bench believes it
  // measured: one miss (the warm-up), everything else hits.
  ServiceClient auditor(socket);
  const AdminResult admin = auditor.admin();
  if (admin.error != ErrorCode::None) die("admin read failed");
  const std::uint64_t total =
      admin.stats.cache_hits + admin.stats.cache_misses;
  if (admin.stats.cache_misses != 1 || total == 0) {
    die("cache counters disagree with the measured workload");
  }
  result.hit_rate = static_cast<double>(admin.stats.cache_hits) /
                    static_cast<double>(total);
  server.stop();
  return result;
}

void write_json(const std::string& path, const std::vector<CaseResult>& cases,
                const SweepResult& sweep, bool smoke) {
  std::ofstream out(path);
  if (!out) die("cannot write " + path);
  out << "{\n";
  out << "  \"bench\": \"service_throughput\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"hardware_threads\": "
      << qdc::util::ThreadPool::hardware_threads() << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CaseResult& cr = cases[c];
    out << "    {\n";
    out << "      \"name\": \"" << cr.spec.name << "\",\n";
    out << "      \"topology\": \""
        << qdc::service::topology_kind_name(cr.spec.base.topology)
        << "\",\n";
    out << "      \"algorithm\": \""
        << qdc::service::algorithm_kind_name(cr.spec.base.algorithm)
        << "\",\n";
    out << "      \"nodes\": " << cr.spec.base.nodes << ",\n";
    out << "      \"jobs\": " << cr.spec.jobs << ",\n";
    out << "      \"results\": [\n";
    for (std::size_t r = 0; r < cr.results.size(); ++r) {
      const WorkerResult& wr = cr.results[r];
      out << "        {\"workers\": " << wr.units
          << ", \"seconds\": " << wr.seconds
          << ", \"jobs_per_sec\": " << wr.rate
          << ", \"speedup\": " << wr.speedup << "}"
          << (r + 1 < cr.results.size() ? "," : "") << "\n";
    }
    out << "      ]\n";
    out << "    }" << (c + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sweep\": {\n";
  out << "    \"requests\": " << sweep.requests << ",\n";
  out << "    \"payload_bytes\": " << sweep.payload_bytes << ",\n";
  out << "    \"hit_rate\": " << sweep.hit_rate << ",\n";
  out << "    \"results\": [\n";
  for (std::size_t r = 0; r < sweep.results.size(); ++r) {
    const WorkerResult& wr = sweep.results[r];
    out << "      {\"clients\": " << wr.units
        << ", \"seconds\": " << wr.seconds
        << ", \"requests_per_sec\": " << wr.rate
        << ", \"speedup\": " << wr.speedup << "}"
        << (r + 1 < sweep.results.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_service_throughput [--smoke] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<int> workers = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  const std::vector<int> clients = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};

  JobSpec census;
  census.topology = TopologyKind::Path;
  census.algorithm = AlgorithmKind::Census;
  census.nodes = smoke ? 64 : 256;

  JobSpec mst;
  mst.topology = TopologyKind::Gnm;
  mst.algorithm = AlgorithmKind::Mst;
  mst.nodes = smoke ? 96 : 256;
  mst.edges = mst.nodes * 2;
  mst.topology_seed = 0xC0FFEE;

  std::vector<CaseResult> cases;
  cases.push_back(
      run_case(CaseSpec{"census_path", census, smoke ? 8 : 32}, workers));
  cases.push_back(run_case(CaseSpec{"mst_gnm", mst, smoke ? 6 : 24}, workers));

  const SweepResult sweep =
      run_cache_sweep(census, smoke ? 64 : 512, clients);

  write_json(out_path, cases, sweep, smoke);
  std::cout << "service_throughput: wrote " << out_path << "\n";
  return 0;
}
