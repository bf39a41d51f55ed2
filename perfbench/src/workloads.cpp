#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "core/lb_network.hpp"
#include "dist/mst.hpp"
#include "dist/tree.hpp"
#include "dist/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/mst.hpp"
#include "quantum/algorithms.hpp"
#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/state.hpp"
#include "service/client.hpp"
#include "service/executor.hpp"
#include "service/job_spec.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using qdc::Rng;
using qdc::splitmix64;
using qdc::uniform_int;
using qdc::uniform_real;

// Set-up is timed for kSetupFirstSeconds (at least kSetupFirstReps times)
// before the passes, then after every timed pass for kSetupShare of that
// pass's duration (at least once); setup_s is the median of all of them.
constexpr int kSetupFirstReps = 5;
constexpr double kSetupFirstSeconds = 0.5;
constexpr double kSetupShare = 0.05;

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::string op_name(const char* kind, std::int64_t index) {
  return std::string(kind) + std::to_string(index);
}

/// Times set-up repetitions into the "setup_s" series. A repetition runs
/// `build()` inside the timed region (a traced op "setupK" in a traced
/// run); `release()` then frees what it built, outside the timed region.
/// The instance the passes run on is built separately, so repetitions can
/// be taken between passes and the setup_s median covers the same stretch
/// of the run as the pass medians.
class SetupSampler {
 public:
  SetupSampler(const Options& o, Tracer& tracer, Report& r,
               std::function<void()> build, std::function<void()> release)
      : o_(o), tracer_(tracer), r_(r), build_(std::move(build)),
        release_(std::move(release)) {}

  /// Repeats set-up at least `min_reps` times and for `seconds`.
  void sample(double seconds, int min_reps = 1) {
    const std::int64_t start = now_ns();
    for (int i = 0;
         i < min_reps || seconds_between(start, now_ns()) < seconds; ++i) {
      tracer_.set_enabled(o_.trace);
      const std::int64_t t0 = now_ns();
      {
        const auto root =
            tracer_.span("perfbench.setup", op_name("setup", reps_++));
        build_();
      }
      r_.add("setup_s", seconds_between(t0, now_ns()));
      tracer_.set_enabled(false);
      release_();
    }
  }

 private:
  const Options& o_;
  Tracer& tracer_;
  Report& r_;
  std::function<void()> build_;
  std::function<void()> release_;
  int reps_ = 0;
};

/// Samples set-up, runs one untimed warm-up pass, then runs timed passes
/// (at least `min_passes`, doubled in a traced run) while the next pass,
/// expected to last as long as the previous one, would end within
/// `o.seconds` of the start. The warm-up pass is checked like the others
/// but records no sample: it absorbs first-touch page faults and cold
/// caches. After every timed pass, set-up is sampled again. `pass` returns
/// the seconds its timed part took; checks run outside that part. In a
/// traced run every second pass is traced, so traced and untraced passes
/// interleave and see the same host conditions; their medians give
/// trace.overhead_frac.
void run_passes(const Options& o, int min_passes, Tracer& tracer, Report& r,
                SetupSampler& setups,
                const std::function<double(const std::string& op)>& pass) {
  const std::int64_t budget_start = now_ns();
  setups.sample(kSetupFirstSeconds, kSetupFirstReps);
  pass("warmup");
  const int floor = o.trace ? 2 * min_passes : min_passes;
  double last_s = seconds_between(budget_start, now_ns());
  double phase_s = 0.0;  // passes with their checks, without set-up samples
  for (int i = 0;
       i < floor || seconds_between(budget_start, now_ns()) + last_s < o.seconds;
       ++i) {
    const std::int64_t pass_start = now_ns();
    const bool traced = o.trace && i % 2 == 1;
    const std::string op = op_name("pass", i);
    tracer.set_enabled(traced);
    double timed = 0.0;
    {
      const auto root = tracer.span("perfbench.pass", op);
      timed = pass(op);
    }
    tracer.set_enabled(false);
    r.add(traced ? "traced_pass_s" : "pass_s", timed);
    phase_s += seconds_between(pass_start, now_ns());
    setups.sample(kSetupShare * timed);
    last_s = seconds_between(pass_start, now_ns());
  }
  r.values["timed_phase_s"] = phase_s;
}

// ---------------------------------------------------------------- lb_pipeline

constexpr int kLbGamma = 17;
constexpr int kLbLength = 129;
// The engine flood of a traced run (see lb_pipeline).
constexpr int kFloodRounds = 200;
constexpr int kFloodPorts = 2;
constexpr int kFloodReps = 10;

/// Every node folds its inbox into a seeded accumulator and sends two
/// fields on its first (at most) two ports for kFloodRounds rounds.
class FloodProgram final : public qdc::congest::NodeProgram {
 public:
  explicit FloodProgram(std::uint64_t acc) : acc_(acc) {}

  void on_round(qdc::congest::NodeContext& ctx,
                const std::vector<qdc::congest::Incoming>& inbox) override {
    for (const auto& msg : inbox) {
      for (const std::int64_t f : msg.data) {
        acc_ = splitmix64(acc_ ^ static_cast<std::uint64_t>(f));
      }
    }
    if (ctx.round() >= kFloodRounds) {
      ctx.set_output(static_cast<std::int64_t>(acc_ & 0x7fffffffffffULL));
      ctx.halt();
      return;
    }
    const qdc::congest::Payload out{static_cast<std::int64_t>(acc_ & 0xffff),
                                    ctx.round()};
    const int ports = std::min(ctx.degree(), kFloodPorts);
    for (int p = 0; p < ports; ++p) ctx.send(p, out);
  }

 private:
  std::uint64_t acc_;
};

struct LbInstance {
  std::unique_ptr<qdc::core::LbNetwork> lbn;
  qdc::graph::WeightedGraph weighted;
  qdc::graph::EdgeSubset ham;   // embedded E_C/E_D matchings
  qdc::graph::EdgeSubset tree;  // ham minus one edge: a Hamiltonian path
  std::unique_ptr<qdc::congest::Network> net;
};

/// Seeded inputs: edge weights in [1, 1000], a line permutation whose
/// alternate pairs form the E_C and E_D perfect matchings (their union is
/// one cycle over all lines), and the edge cut from that cycle.
struct LbInputs {
  std::vector<double> weights;
  std::vector<qdc::graph::Edge> carol, david;
  std::int64_t cut_pick = 0;
};

LbInputs draw_lb_inputs(std::uint64_t seed, int edges, int lines) {
  Rng rng(splitmix64(seed ^ 0x6c625f7069706531ULL));
  LbInputs in;
  in.weights.resize(static_cast<std::size_t>(edges));
  for (double& w : in.weights) w = static_cast<double>(uniform_int(rng, 1, 1000));
  std::vector<int> perm(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = lines - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(uniform_int(rng, 0, i))]);
  }
  for (int i = 0; i < lines; i += 2) {
    const auto at = [&](int k) { return perm[static_cast<std::size_t>(k % lines)]; };
    in.carol.push_back({at(i), at(i + 1)});
    in.david.push_back({at(i + 1), at(i + 2)});
  }
  in.cut_pick = uniform_int(rng, 0, 1 << 30);
  return in;
}

void lb_pipeline(const Options& o, Report& r) {
  Tracer tracer;
  std::optional<LbInputs> inputs;
  const auto build = [&](LbInstance& inst) {
    {
      const auto s = tracer.span("core.LbNetwork");
      inst.lbn = std::make_unique<qdc::core::LbNetwork>(kLbGamma, kLbLength);
    }
    const qdc::graph::Graph& g = inst.lbn->topology();
    if (!inputs) {
      inputs = draw_lb_inputs(o.seed, g.edge_count(), inst.lbn->line_count());
    }
    {
      const auto s = tracer.span("graph.WeightedGraph.add_edge");
      inst.weighted = qdc::graph::WeightedGraph(g.node_count());
      for (qdc::graph::EdgeId e = 0; e < g.edge_count(); ++e) {
        const auto& edge = g.edge(e);
        inst.weighted.add_edge(edge.u, edge.v,
                               inputs->weights[static_cast<std::size_t>(e)]);
      }
    }
    {
      const auto s = tracer.span("core.LbNetwork.embed_matchings");
      inst.ham = inst.lbn->embed_matchings(inputs->carol, inputs->david);
    }
    const std::vector<qdc::graph::EdgeId> members = inst.ham.to_vector();
    inst.tree = inst.ham;
    inst.tree.erase(members[static_cast<std::size_t>(
        inputs->cut_pick % static_cast<std::int64_t>(members.size()))]);
    {
      const auto s = tracer.span("congest.Network");
      inst.net = std::make_unique<qdc::congest::Network>(
          inst.weighted, qdc::congest::NetworkConfig{.bandwidth = 8});
    }
  };
  LbInstance inst, spare;
  build(inst);
  SetupSampler setups(o, tracer, r, [&] { build(spare); },
                      [&] { spare = LbInstance{}; });

  // Sequential truths, computed once outside any timing.
  const qdc::graph::Graph& g = inst.lbn->topology();
  const bool ham_truth = qdc::graph::subset_is_hamiltonian_cycle(g, inst.ham);
  const bool tree_truth = qdc::graph::subset_is_spanning_tree(g, inst.tree);
  const double mst_truth = qdc::graph::mst_weight(inst.weighted);
  r.values["lb.nodes"] = g.node_count();
  r.values["lb.edges"] = g.edge_count();
  r.values["lb.lines"] = inst.lbn->line_count();
  r.values["lb.ham_truth"] = ham_truth;
  r.values["lb.mst_weight"] = mst_truth;
  r.env["threads"] = "1";
  r.env["audit"] = "true";
  r.env["instance"] = "LbNetwork(17,129) materialized, weights [1,1000]";

  qdc::congest::Network& net = *inst.net;
  const qdc::congest::NodeId root = inst.lbn->path_node(0, 1);
  const qdc::congest::RunOptions bfs_options{.threads = 1, .audit = true};
  std::vector<double> fingerprint;
  run_passes(o, 3, tracer, r, setups, [&](const std::string& op) {
    const std::int64_t t0 = now_ns();
    qdc::dist::BfsTreeResult tree;
    qdc::dist::VerifyResult ham, st;
    qdc::dist::MstRunResult mst;
    {
      const auto s = tracer.span("dist.build_bfs_tree", op);
      tree = qdc::dist::build_bfs_tree(net, root, bfs_options);
    }
    {
      const auto s = tracer.span("dist.verify_hamiltonian_cycle", op);
      ham = qdc::dist::verify_hamiltonian_cycle(net, tree, inst.ham);
    }
    {
      const auto s = tracer.span("dist.verify_spanning_tree", op);
      st = qdc::dist::verify_spanning_tree(net, tree, inst.tree);
    }
    {
      const auto s = tracer.span("dist.run_mst", op);
      mst = qdc::dist::run_mst(net, tree, qdc::dist::MstOptions{});
    }
    const double timed = seconds_between(t0, now_ns());

    const std::vector<double> counts{
        double(tree.stats.rounds), double(tree.stats.messages),
        double(ham.rounds),        double(ham.messages),
        double(st.rounds),         double(st.messages),
        double(mst.stats.rounds),  double(mst.stats.messages)};
    if (fingerprint.empty()) {
      fingerprint = counts;
      const char* keys[] = {"dist.bfs.rounds",       "dist.bfs.messages",
                            "dist.ham_verify.rounds", "dist.ham_verify.messages",
                            "dist.st_verify.rounds",  "dist.st_verify.messages",
                            "dist.mst.rounds",        "dist.mst.messages"};
      for (std::size_t i = 0; i < counts.size(); ++i) r.values[keys[i]] = counts[i];
    }
    bool ok = r.check(ham.accepted == ham_truth,
                      op + ": Hamiltonian verdict differs from the sequential truth");
    ok &= r.check(st.accepted == tree_truth,
                  op + ": spanning-tree verdict differs from the sequential truth");
    ok &= r.check(mst.weight == mst_truth,
                  op + ": run_mst weight differs from graph::mst_weight");
    ok &= r.check(tree.stats.completed && mst.stats.completed,
                  op + ": a dist driver did not complete");
    ok &= r.check(counts == fingerprint, op + ": round/message counts changed");
    ++r.attempted;
    if (!ok) ++r.failed;
    return timed;
  });

  if (o.trace) {
    // The dist drivers call Network::install and run internally, so a
    // traced run also drives the engine directly: a seeded flood on the
    // same network, audited (traced) and unaudited repetitions
    // interleaved. It gives the congest spans, the engine's exact counts
    // and its audit share.
    const std::uint64_t seed_mix = splitmix64(o.seed ^ 0x666c6f6f64ULL);
    const auto factory = [seed_mix](qdc::congest::NodeId u,
                                    const qdc::congest::NodeContext&) {
      return std::make_unique<FloodProgram>(
          splitmix64(seed_mix ^ static_cast<std::uint64_t>(u)));
    };
    std::int64_t expected_messages = 0;
    for (int u = 0; u < g.node_count(); ++u) {
      expected_messages += std::min(g.degree(u), kFloodPorts);
    }
    expected_messages *= kFloodRounds;
    std::optional<qdc::congest::RunStats> first_stats;
    std::uint64_t first_fold = 0;
    for (int i = 0; i < kFloodReps; ++i) {
      for (const bool audit : {true, false}) {
        const std::string op = op_name(audit ? "flood" : "flood_unaudited", i);
        tracer.set_enabled(audit);
        const std::int64_t t0 = now_ns();
        qdc::congest::RunStats stats;
        {
          const auto s = tracer.span("congest.Network.install", op);
          net.install(factory);
        }
        {
          const auto s = tracer.span("congest.Network.run", op);
          stats = net.run(qdc::congest::RunOptions{
              .max_rounds = kFloodRounds + 2, .threads = 1, .audit = audit});
        }
        r.add(audit ? "audit_on_s" : "audit_off_s", seconds_between(t0, now_ns()));
        tracer.set_enabled(false);
        const std::vector<std::int64_t> outputs = net.outputs();
        const std::uint64_t fold =
            fnv1a(outputs.data(), outputs.size() * sizeof(std::int64_t));
        if (!first_stats) {
          first_stats = stats;
          first_fold = fold;
          r.values["congest.rounds"] = stats.rounds;
          r.values["congest.messages"] = static_cast<double>(stats.messages);
          r.values["congest.fields"] = static_cast<double>(stats.fields);
        }
        ++r.attempted;
        bool ok = r.check(stats.completed, op + ": flood did not complete");
        ok &= r.check(stats.messages == expected_messages &&
                          stats.fields == 2 * expected_messages,
                      op + ": message/field count differs from the topology's");
        ok &= r.check(stats == *first_stats, op + ": flood RunStats changed");
        ok &= r.check(fold == first_fold, op + ": flood output fold changed");
        if (!ok) ++r.failed;
      }
    }
  }
  r.spans = tracer.spans();
}

// ----------------------------------------------------------------------- qsim

constexpr int kCircuitQubits = 21;
constexpr int kCircuitLayers = 2;
constexpr int kGroverQubits = 16;
constexpr int kGroverThreads = 4;

void qsim(const Options& o, Report& r) {
  using qdc::quantum::StateVector;
  Tracer tracer;
  // Set-up is the Grover pool plus the circuit's state allocation. The
  // passes keep the pool and allocate a fresh state each; set-up
  // repetitions build and release a spare pool and state.
  std::unique_ptr<qdc::util::ThreadPool> pool, spare_pool;
  std::unique_ptr<StateVector> spare_state;
  pool = std::make_unique<qdc::util::ThreadPool>(kGroverThreads);
  SetupSampler setups(
      o, tracer, r,
      [&] {
        spare_pool = std::make_unique<qdc::util::ThreadPool>(kGroverThreads);
        const auto s = tracer.span("quantum.StateVector");
        spare_state = std::make_unique<StateVector>(kCircuitQubits);
      },
      [&] {
        spare_state.reset();
        spare_pool.reset();
      });

  Rng rng(splitmix64(o.seed ^ 0x7173696dULL));
  std::vector<double> angles(2 * kCircuitLayers * kCircuitQubits);
  for (double& a : angles) a = 2.0 * 3.141592653589793 * uniform_real(rng);
  const std::size_t marked =
      static_cast<std::size_t>(uniform_int(rng, 0, (1 << kGroverQubits) - 1));
  const std::uint64_t measure_seed = splitmix64(o.seed ^ 0x67726f766572ULL);

  const int n = kCircuitQubits;
  // Full-state passes of part (a): the Hadamard layer, qft (n Hadamards,
  // n(n-1)/2 controlled phases, n/2 swaps) and the ry/cnot/rz layers.
  const int gate_passes = n + (n + n * (n - 1) / 2 + n / 2) +
                          kCircuitLayers * (n + (n - 1) + n);
  r.values["quantum.passes"] = gate_passes;
  r.values["quantum.reduce_passes"] = 1 + n;
  r.values["quantum.qubits"] = n;
  r.env["threads"] = "circuit 1 (pool = null), grover " +
                     std::to_string(kGroverThreads);
  r.env["fusion_window"] = "0";

  std::optional<std::uint64_t> first_checksum;
  run_passes(o, 2, tracer, r, setups, [&](const std::string& op) {
    const std::int64_t t0 = now_ns();
    std::optional<StateVector> state;
    {
      const auto s = tracer.span("quantum.StateVector", op);
      state.emplace(n);
    }
    for (int q = 0; q < n; ++q) {
      const auto s = tracer.span("quantum.StateVector.apply", op);
      state->apply(qdc::quantum::hadamard(), q);
    }
    {
      const auto s = tracer.span("quantum.qft", op);
      qdc::quantum::qft(*state);
    }
    const double* angle = angles.data();
    for (int layer = 0; layer < kCircuitLayers; ++layer) {
      for (int q = 0; q < n; ++q) {
        const auto s = tracer.span("quantum.StateVector.apply", op);
        state->apply(qdc::quantum::ry(*angle++), q);
      }
      for (int q = 0; q + 1 < n; ++q) {
        const auto s = tracer.span("quantum.StateVector.cnot", op);
        state->cnot(q, q + 1);
      }
      for (int q = 0; q < n; ++q) {
        const auto s = tracer.span("quantum.StateVector.apply", op);
        state->apply(qdc::quantum::rz(*angle++), q);
      }
    }
    double norm = 0.0;
    {
      const auto s = tracer.span("quantum.StateVector.norm_squared", op);
      norm = state->norm_squared();
    }
    std::vector<double> p1(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      const auto s = tracer.span("quantum.StateVector.probability_one", op);
      p1[static_cast<std::size_t>(q)] = state->probability_one(q);
    }
    qdc::quantum::GroverResult grover;
    {
      const auto s = tracer.span("quantum.grover_search", op);
      Rng measure_rng(measure_seed);
      grover = qdc::quantum::grover_search(
          kGroverQubits, [marked](std::size_t i) { return i == marked; },
          measure_rng, -1, pool.get(), 0);
    }
    const double timed = seconds_between(t0, now_ns());

    const auto& amps = state->amplitudes();
    std::uint64_t checksum =
        fnv1a(amps.data(), amps.size() * sizeof(qdc::quantum::Amplitude));
    checksum = fnv1a(p1.data(), p1.size() * sizeof(double), checksum);
    if (!first_checksum) {
      first_checksum = checksum;
      r.values["quantum.grover_iterations"] = grover.iterations;
      r.env["amplitude_checksum"] = std::to_string(checksum);
    }
    bool ok = r.check(checksum == *first_checksum,
                      op + ": amplitude checksum changed across passes");
    ok &= r.check(std::abs(norm - 1.0) <= 1e-9, op + ": norm_squared is not 1");
    ok &= r.check(grover.found == marked && grover.is_marked,
                  op + ": grover_search missed the marked item");
    ++r.attempted;
    if (!ok) ++r.failed;
    return timed;
  });

  if (o.trace) {
    // Bandwidth roofline: a plain-double Hadamard butterfly over an array
    // the size of the circuit's state (read and write every byte once).
    std::vector<double> x(std::size_t{2} << n);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i & 1023) * 1e-3;
    const double h = 1.0 / std::sqrt(2.0);
    for (int rep = 0; rep < 9; ++rep) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < x.size(); i += 4) {
        const double ar = x[i], ai = x[i + 1], br = x[i + 2], bi = x[i + 3];
        x[i] = (ar + br) * h;
        x[i + 1] = (ai + bi) * h;
        x[i + 2] = (ar - br) * h;
        x[i + 3] = (ai - bi) * h;
      }
      r.add("roofline_s", seconds_between(t0, now_ns()));
    }
    r.values["roofline_sink"] = x[x.size() / 3];  // keeps the stores live
    r.values["quantum.roofline_bytes"] = double(x.size() * sizeof(double) * 2);
  }
  r.spans = tracer.spans();
}

// ---------------------------------------------------------------- service_mix

constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 2;
// Every block of kServiceBlock requests (one pass) has the same mix, in a
// seeded order: a quarter repeats an earlier spec, and the fresh specs are
// half census on path(128), 35% MST on gnm(192,384) and 15% MST on
// lb_network(8,33).
constexpr int kBlockRepeats = 40;
constexpr int kBlockCensus = 60;
constexpr int kBlockGnmMst = 42;
constexpr int kBlockLbMst = 18;
constexpr int kServiceBlock =
    kBlockRepeats + kBlockCensus + kBlockGnmMst + kBlockLbMst;
constexpr std::size_t kStreamLength = 125 * kServiceBlock;
constexpr int kReexecuteSample = 8;

/// The seeded spec stream: each entry is a fresh spec or a repeat of an
/// earlier one. `source[i]` is the index of the stream entry that first
/// carried entry i's spec (i itself for a fresh spec).
struct SpecStream {
  std::vector<qdc::service::JobSpec> specs;
  std::vector<std::size_t> source;
};

SpecStream draw_spec_stream(std::uint64_t seed) {
  using qdc::service::AlgorithmKind;
  using qdc::service::TopologyKind;
  enum Kind { kRepeat, kCensus, kGnmMst, kLbMst };
  std::vector<Kind> block;
  block.insert(block.end(), kBlockRepeats, kRepeat);
  block.insert(block.end(), kBlockCensus, kCensus);
  block.insert(block.end(), kBlockGnmMst, kGnmMst);
  block.insert(block.end(), kBlockLbMst, kLbMst);

  Rng rng(splitmix64(seed ^ 0x7365727669636531ULL));
  SpecStream s;
  std::vector<std::size_t> fresh;
  while (s.specs.size() < kStreamLength) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[static_cast<std::size_t>(
                              uniform_int(rng, 0, static_cast<std::int64_t>(i)))]);
    }
    for (const Kind kind : block) {
      const std::size_t i = s.specs.size();
      if (kind == kRepeat && !fresh.empty()) {
        const std::size_t src = fresh[static_cast<std::size_t>(
            uniform_int(rng, 0, static_cast<std::int64_t>(fresh.size()) - 1))];
        s.specs.push_back(s.specs[src]);
        s.source.push_back(src);
        continue;
      }
      // A repeat drawn before any fresh spec exists (only possible at the
      // head of the warm-up block) becomes a fresh census job.
      qdc::service::JobSpec spec;
      if (kind == kGnmMst) {
        spec.topology = TopologyKind::Gnm;
        spec.algorithm = AlgorithmKind::Mst;
        spec.nodes = 192;
        spec.edges = 384;
        spec.topology_seed = rng();
      } else if (kind == kLbMst) {
        spec.topology = TopologyKind::LbNetwork;
        spec.algorithm = AlgorithmKind::Mst;
        spec.gamma = 8;
        spec.length = 33;
      } else {
        spec.topology = TopologyKind::Path;
        spec.algorithm = AlgorithmKind::Census;
        spec.nodes = 128;
      }
      spec.shared_seed = rng();  // distinct cache key for every fresh spec
      s.specs.push_back(spec);
      s.source.push_back(i);
      fresh.push_back(i);
    }
  }
  return s;
}

std::uint64_t steady_us() { return static_cast<std::uint64_t>(now_ns() / 1000); }

struct ServiceRig {
  std::unique_ptr<qdc::service::ExperimentServer> server;
  std::vector<std::unique_ptr<qdc::service::ServiceClient>> clients;

  void stop() {
    clients.clear();
    if (server) server->stop();
    server.reset();
  }
};

void service_mix(const Options& o, Report& r) {
  using qdc::service::ErrorCode;
  Tracer tracer;
  const SpecStream stream = draw_spec_stream(o.seed);
  // Set-up repetitions start a spare server on a socket of their own while
  // the passes' server keeps its cache.
  const std::string spare_socket = o.socket_path + ".setup";
  std::filesystem::remove(o.socket_path);
  std::filesystem::remove(spare_socket);

  const auto build = [&](ServiceRig& rig, const std::string& socket) {
    qdc::service::ServerOptions so;
    so.socket_path = socket;
    so.workers = kServiceWorkers;
    so.queue_capacity = 256;
    so.cache_bytes = 64ull << 20;
    so.tick = steady_us;
    {
      const auto s = tracer.span("service.ExperimentServer.start");
      rig.server = std::make_unique<qdc::service::ExperimentServer>(so);
      rig.server->start();
    }
    const auto s = tracer.span("service.ServiceClient");
    for (int c = 0; c < kServiceClients; ++c) {
      rig.clients.push_back(
          std::make_unique<qdc::service::ServiceClient>(socket));
    }
  };
  ServiceRig rig, spare;
  build(rig, o.socket_path);
  SetupSampler setups(o, tracer, r, [&] { build(spare, spare_socket); },
                      [&] { spare.stop(); });
  r.env["workers"] = std::to_string(kServiceWorkers);
  r.env["clients"] = std::to_string(kServiceClients) + " closed-loop";
  r.env["block"] = std::to_string(kServiceBlock);

  // First reply bytes per fresh stream entry; repeats must match them.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> first_reply(
      kStreamLength);
  std::mutex mu;  // guards first_reply and r (the report)
  std::size_t submitted = 0;  // stream entries handed out by earlier passes
  // The warm-up block is served and checked but leaves no samples; the
  // request count and compute total cover the timed blocks only.
  std::size_t timed_from = 0;
  std::uint64_t warmup_compute_us = 0;

  run_passes(o, 4, tracer, r, setups, [&](const std::string& op) {
    const bool warmup = op == "warmup";
    if (!warmup && timed_from == 0) {
      timed_from = submitted;
      const qdc::service::AdminResult admin = rig.clients[0]->admin();
      r.check(admin.error == ErrorCode::None, "admin request failed");
      warmup_compute_us = admin.stats.total_compute_us;
    }
    const std::size_t end = submitted + kServiceBlock;
    if (end > kStreamLength) throw std::runtime_error("spec stream exhausted");
    std::atomic<std::size_t> cursor{submitted};
    submitted = end;
    const int block_span = tracer.innermost();
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (int c = 0; c < kServiceClients; ++c) {
      threads.emplace_back([&, c] {
        qdc::service::ServiceClient& client = *rig.clients[static_cast<std::size_t>(c)];
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= end) break;
          const std::int64_t q0 = now_ns();
          qdc::service::SubmitResult res;
          {
            const auto s = tracer.child_of(block_span, "service.ServiceClient.submit",
                                           op_name("req", static_cast<std::int64_t>(i)));
            res = client.submit(stream.specs[i]);
          }
          const double latency_ms = static_cast<double>(now_ns() - q0) * 1e-6;
          const std::string what = "request " + std::to_string(i);
          std::optional<std::string> decode_error;
          if (res.error == ErrorCode::None) {
            try {
              qdc::service::decode_result(res.status.result);
            } catch (const std::exception& e) {
              decode_error = e.what();
            }
          }
          const std::lock_guard<std::mutex> lock(mu);
          ++r.attempted;
          bool ok = r.check(res.error == ErrorCode::None &&
                                res.status.state == qdc::service::JobState::Done,
                            what + ": not served (" + res.error_message + ")");
          ok = ok && r.check(!decode_error, what + ": decode_result failed");
          if (ok) {
            auto& first = first_reply[stream.source[i]];
            if (!first) {
              first = std::make_shared<const std::vector<std::uint8_t>>(
                  res.status.result);
            } else {
              ok = r.check(*first == res.status.result,
                           what + ": repeat differs from the spec's first reply");
            }
          }
          if (!ok) {
            ++r.failed;
            continue;
          }
          if (warmup) continue;
          const double wall_ms = static_cast<double>(res.status.wall_us) * 1e-3;
          const double compute_ms =
              static_cast<double>(res.status.compute_us) * 1e-3;
          r.add("latency_ms", latency_ms);
          r.add("transport_ms", latency_ms - wall_ms);
          if (res.status.cached) {
            r.add("hit_latency_ms", latency_ms);
          } else {
            r.add("queue_wait_ms", wall_ms - compute_ms);
            r.add("compute_ms", compute_ms);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return seconds_between(t0, now_ns());
  });

  const qdc::service::AdminResult admin = rig.clients[0]->admin();
  if (r.check(admin.error == ErrorCode::None, "admin request failed")) {
    const qdc::service::AdminStats& a = admin.stats;
    r.values["service.cache_hits"] = double(a.cache_hits);
    r.values["service.cache_misses"] = double(a.cache_misses);
    r.values["service.jobs_failed"] = double(a.jobs_failed);
    r.values["service.jobs_expired"] = double(a.jobs_expired);
    r.values["service.total_compute_us"] =
        double(a.total_compute_us - warmup_compute_us);
    r.values["service.workers"] = kServiceWorkers;
  }
  r.values["service.requests"] = double(submitted - timed_from);

  // Re-execute a seeded sample of served specs in-process; the bytes must
  // equal what the service replied.
  std::vector<std::size_t> served;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    if (first_reply[i]) served.push_back(i);
  }
  Rng pick(splitmix64(o.seed ^ 0x73616d706c65ULL));
  tracer.set_enabled(o.trace);
  for (int k = 0; k < kReexecuteSample && !served.empty(); ++k) {
    const std::size_t i = served[static_cast<std::size_t>(
        uniform_int(pick, 0, static_cast<std::int64_t>(served.size()) - 1))];
    std::vector<std::uint8_t> bytes;
    {
      const auto s = tracer.span("service.execute_job", op_name("check", k));
      bytes = qdc::service::execute_job(stream.specs[i]);
    }
    ++r.attempted;
    if (!r.check(bytes == *first_reply[i],
                 "execute_job bytes differ for stream entry " + std::to_string(i))) {
      ++r.failed;
    }
  }
  tracer.set_enabled(false);

  rig.stop();
  std::filesystem::remove(o.socket_path);
  std::filesystem::remove(spare_socket);
  r.spans = tracer.spans();
}

}  // namespace

void run_workload(const Options& options, Report& report) {
  report.workload = options.workload;
  report.seed = options.seed;
  report.trace = options.trace;
  if (options.workload == "lb_pipeline") {
    lb_pipeline(options, report);
  } else if (options.workload == "qsim") {
    qsim(options, report);
  } else if (options.workload == "service_mix") {
    service_mix(options, report);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  report.values["peak_rss_mb"] = peak_rss_mib();
}

}  // namespace perfbench
