// Determinism suite for the parallel statevector kernels, mirroring
// EngineDeterminism: amplitudes, reductions, measurement outcomes and the
// quantum bench's payload checksums must be bit-identical for a null pool
// and for pools of 1, 2 and 4 threads. The probe circuit is wide enough
// (16 qubits = 65536 amplitudes) that every kernel — gate pairs,
// controlled pairs, oracle sweeps, reductions and collapses — actually
// splits into multiple shards; any cross-shard ordering leak fails loudly
// as a bitwise mismatch instead of averaging out. The gate kernels are
// also pinned bit for bit against the std::complex pair loop they
// replaced, on states and gates that include signed zeros and subnormals.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "quantum/gates.hpp"
#include "quantum/grover.hpp"
#include "quantum/protocols.hpp"
#include "quantum/state.hpp"
#include "quantum/testing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qdc::quantum {
namespace {

constexpr int kProbeQubits = 16;

/// A gate soup hitting every kernel family: single-qubit pairs, controlled
/// pairs, an oracle sweep and a swap. Deterministic, no randomness.
void build_probe_circuit(StateVector& s) {
  const int n = s.qubit_count();
  for (int q = 0; q < n; ++q) s.apply(hadamard(), q);
  for (int q = 0; q < n; ++q) s.apply(ry(0.1 * q + 0.3), q);
  for (int q = 0; q + 1 < n; ++q) s.cnot(q, q + 1);
  for (int q = 0; q < n; q += 3) s.apply(rz(0.2 * q + 0.05), q);
  s.oracle_phase([](std::size_t i) { return (i * 2654435761ULL) % 7 == 3; });
  for (int q = 1; q < n; q += 2) s.apply_controlled(phase_t(), q - 1, q);
  s.cz(0, n - 1);
  s.swap(0, n - 1);
}

/// Bitwise equality of two statevectors (exact, not approximate).
bool bit_identical(const StateVector& a, const StateVector& b) {
  return a.dimension() == b.dimension() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dimension() * sizeof(Amplitude)) == 0;
}

/// Folds the raw amplitude bits into one word — the same payload checksum
/// bench_quantum_scaling embeds in BENCH_quantum.json, so this suite pins
/// the determinism of the bench's reported payloads too.
std::uint64_t amplitude_checksum(const StateVector& s) {
  std::uint64_t acc = 0x243f6a8885a308d3ULL;
  for (const Amplitude& a : s.amplitudes()) {
    std::uint64_t re = 0;
    std::uint64_t im = 0;
    const double re_d = a.real();
    const double im_d = a.imag();
    std::memcpy(&re, &re_d, sizeof(re));
    std::memcpy(&im, &im_d, sizeof(im));
    acc = (acc ^ re) * 0x9e3779b97f4a7c15ULL;
    acc = (acc ^ im) * 0xbf58476d1ce4e5b9ULL;
  }
  return acc;
}

/// The pool sizes every test compares: null (serial), and 1/2/4 threads.
std::vector<std::unique_ptr<util::ThreadPool>> make_pools() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int t : {1, 2, 4}) {
    pools.push_back(std::make_unique<util::ThreadPool>(t));
  }
  return pools;
}

TEST(QuantumDeterminism, GateKernelsBitIdenticalAcrossThreadCounts) {
  StateVector reference(kProbeQubits);
  build_probe_circuit(reference);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    StateVector s(kProbeQubits, pools[p].get());
    build_probe_circuit(s);
    EXPECT_TRUE(bit_identical(s, reference)) << "pool " << p;
    EXPECT_EQ(amplitude_checksum(s), amplitude_checksum(reference))
        << "pool " << p;
  }
}

TEST(QuantumDeterminism, ReductionsBitIdenticalAcrossThreadCounts) {
  StateVector reference(kProbeQubits);
  build_probe_circuit(reference);
  StateVector other_ref(kProbeQubits);
  for (int q = 0; q < kProbeQubits; ++q) other_ref.apply(hadamard(), q);

  const double norm_ref = reference.norm_squared();
  const double fid_ref = reference.fidelity(other_ref);
  std::vector<double> p1_ref;
  for (int q = 0; q < kProbeQubits; ++q) {
    p1_ref.push_back(reference.probability_one(q));
  }

  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    StateVector s(kProbeQubits, pools[p].get());
    build_probe_circuit(s);
    StateVector other(kProbeQubits, pools[p].get());
    for (int q = 0; q < kProbeQubits; ++q) other.apply(hadamard(), q);
    // EXPECT_EQ, not EXPECT_NEAR: the contract is bitwise equality.
    EXPECT_EQ(s.norm_squared(), norm_ref) << "pool " << p;
    EXPECT_EQ(s.fidelity(other), fid_ref) << "pool " << p;
    for (int q = 0; q < kProbeQubits; ++q) {
      EXPECT_EQ(s.probability_one(q), p1_ref[static_cast<std::size_t>(q)])
          << "pool " << p << " qubit " << q;
    }
  }
}

TEST(QuantumDeterminism, MeasurementOutcomesBitIdenticalAcrossThreadCounts) {
  const auto run = [](util::ThreadPool* pool, std::vector<std::size_t>* out,
                      StateVector* final_state) {
    Rng rng(12345);
    StateVector s(kProbeQubits, pool);
    build_probe_circuit(s);
    for (int q = 0; q < 6; ++q) {
      out->push_back(s.measure(q, rng) ? 1u : 0u);
    }
    out->push_back(s.measure_all(rng));
    *final_state = s;
  };
  std::vector<std::size_t> ref_outcomes;
  StateVector ref_state(1);
  run(nullptr, &ref_outcomes, &ref_state);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    std::vector<std::size_t> outcomes;
    StateVector state(1);
    run(pools[p].get(), &outcomes, &state);
    EXPECT_EQ(outcomes, ref_outcomes) << "pool " << p;
    EXPECT_TRUE(bit_identical(state, ref_state)) << "pool " << p;
  }
}

TEST(QuantumDeterminism, GroverBitIdenticalAcrossThreadCounts) {
  // 13 qubits: 8192 items, so the marked-count and success-probability
  // scans in grover_search shard too (not just the gate kernels).
  const auto marked = [](std::size_t i) { return i % 97 == 5; };
  const auto run = [&](util::ThreadPool* pool) {
    Rng rng(777);
    return grover_search(13, marked, rng, /*iterations=*/-1, pool);
  };
  const GroverResult reference = run(nullptr);
  EXPECT_GT(reference.success_probability, 0.5);
  const auto pools = make_pools();
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const GroverResult r = run(pools[p].get());
    EXPECT_EQ(r.found, reference.found) << "pool " << p;
    EXPECT_EQ(r.is_marked, reference.is_marked) << "pool " << p;
    EXPECT_EQ(r.iterations, reference.iterations) << "pool " << p;
    EXPECT_EQ(r.success_probability, reference.success_probability)
        << "pool " << p;
  }
}

TEST(QuantumDeterminism, TeleportationBitIdenticalAtOneAndFourThreads) {
  // A 14-qubit host state (multi-shard collapses) with the EPR pair on
  // qubits (1, 2); everything else carries a non-trivial superposition.
  const auto run = [](util::ThreadPool* pool, TeleportBits* bits,
                      StateVector* final_state) {
    Rng rng(4242);
    StateVector s(14, pool);
    s.apply(ry(0.37), 0);
    s.apply(rz(1.13), 0);
    for (int q = 3; q < 14; ++q) s.apply(hadamard(), q);
    for (int q = 3; q + 1 < 14; ++q) s.cnot(q, q + 1);
    make_epr(s, 1, 2);
    *bits = teleport(s, /*source=*/0, /*epr_a=*/1, /*epr_b=*/2, rng);
    *final_state = s;
  };
  TeleportBits ref_bits;
  StateVector ref_state(1);
  run(nullptr, &ref_bits, &ref_state);
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    TeleportBits bits;
    StateVector state(1);
    run(&pool, &bits, &state);
    EXPECT_EQ(bits.x, ref_bits.x) << "threads " << threads;
    EXPECT_EQ(bits.z, ref_bits.z) << "threads " << threads;
    EXPECT_TRUE(bit_identical(state, ref_state)) << "threads " << threads;
  }
}

TEST(QuantumDeterminism, SuperdenseRoundTripBitIdenticalAtOneAndFourThreads) {
  for (const int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    Rng rng_pooled(999);
    Rng rng_serial(999);
    for (const bool b0 : {false, true}) {
      for (const bool b1 : {false, true}) {
        const auto pooled = superdense_roundtrip(b0, b1, rng_pooled, &pool);
        const auto serial = superdense_roundtrip(b0, b1, rng_serial);
        EXPECT_EQ(pooled, serial) << "threads " << threads;
        EXPECT_EQ(pooled.first, b0);
        EXPECT_EQ(pooled.second, b1);
      }
    }
  }
}

std::size_t reference_insert_zero_bit(std::size_t k, int bit_pos) {
  const std::size_t low_mask = (std::size_t{1} << bit_pos) - 1;
  return ((k >> bit_pos) << (bit_pos + 1)) | (k & low_mask);
}

/// The std::complex pair loops StateVector::apply / apply_controlled ran
/// before their expanded two-lane form: the bitwise oracle for the kernels.
void reference_apply(std::vector<Amplitude>& amps, const Gate1& g,
                     int qubit) {
  const std::size_t bit = std::size_t{1} << qubit;
  for (std::size_t k = 0; k < (amps.size() >> 1); ++k) {
    const std::size_t i0 = reference_insert_zero_bit(k, qubit);
    const std::size_t i1 = i0 | bit;
    const Amplitude a0 = amps[i0];
    const Amplitude a1 = amps[i1];
    amps[i0] = g.u00 * a0 + g.u01 * a1;
    amps[i1] = g.u10 * a0 + g.u11 * a1;
  }
}

void reference_apply_controlled(std::vector<Amplitude>& amps, const Gate1& g,
                                int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const int lo = control < target ? control : target;
  const int hi = control < target ? target : control;
  for (std::size_t k = 0; k < (amps.size() >> 2); ++k) {
    const std::size_t i0 =
        reference_insert_zero_bit(reference_insert_zero_bit(k, lo), hi) |
        cbit;
    const std::size_t i1 = i0 | tbit;
    const Amplitude a0 = amps[i0];
    const Amplitude a1 = amps[i1];
    amps[i0] = g.u00 * a0 + g.u01 * a1;
    amps[i1] = g.u10 * a0 + g.u11 * a1;
  }
}

/// A finite component aimed at the edges of the expanded form: signed
/// zeros, +-1, +-0.5, subnormals, and ordinary values in (-1, 1).
double edge_component(Rng& rng) {
  switch (uniform_int(rng, 0, 6)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return coin(rng) ? 1.0 : -1.0;
    case 3:
      return coin(rng) ? 0.5 : -0.5;
    case 4: {
      const auto mantissa = static_cast<double>(
          uniform_int(rng, 1, (std::int64_t{1} << 52) - 1));
      return (coin(rng) ? 1.0 : -1.0) * mantissa *
             std::numeric_limits<double>::denorm_min();
    }
    default:
      return 2.0 * uniform_real(rng) - 1.0;
  }
}

Amplitude edge_amplitude(Rng& rng) {
  const double re = edge_component(rng);
  return Amplitude{re, edge_component(rng)};
}

Gate1 edge_gate(Rng& rng) {
  Gate1 g;
  for (Amplitude* u : {&g.u00, &g.u01, &g.u10, &g.u11}) {
    *u = edge_amplitude(rng);
  }
  return g;
}

TEST(QuantumDeterminism, GateKernelsMatchComplexReference) {
  // 15 qubits: apply walks 2^14 pairs in 4 shards and apply_controlled
  // 2^13 pairs in 2, with boundaries every 4096 pairs — inside the
  // contiguous runs of every gate whose lower qubit is 13 or above.
  constexpr int kQubits = 15;
  Rng rng(0x6b65726e656cULL);
  std::vector<Amplitude> initial(std::size_t{1} << kQubits);
  for (Amplitude& a : initial) a = edge_amplitude(rng);

  const auto pools = make_pools();
  std::vector<StateVector> states;
  for (const auto& pool : pools) states.emplace_back(kQubits, pool.get());
  const auto expect_all_pools = [&](const std::vector<Amplitude>& expected,
                                    const auto& run_gate,
                                    const std::string& what) {
    for (std::size_t p = 0; p < states.size(); ++p) {
      StateVectorTestAccess::amplitudes(states[p]) = initial;
      run_gate(states[p]);
      EXPECT_EQ(std::memcmp(states[p].amplitudes().data(), expected.data(),
                            expected.size() * sizeof(Amplitude)),
                0)
          << what << ", pool " << p;
    }
  };

  for (int q = 0; q < kQubits; ++q) {
    const Gate1 g = edge_gate(rng);
    std::vector<Amplitude> expected = initial;
    reference_apply(expected, g, q);
    expect_all_pools(
        expected, [&](StateVector& s) { s.apply(g, q); },
        "apply qubit " + std::to_string(q));
  }
  for (int c = 0; c < kQubits; ++c) {
    for (int t = 0; t < kQubits; ++t) {
      if (c == t) continue;
      const Gate1 g = edge_gate(rng);
      std::vector<Amplitude> expected = initial;
      reference_apply_controlled(expected, g, c, t);
      expect_all_pools(
          expected, [&](StateVector& s) { s.apply_controlled(g, c, t); },
          "apply_controlled control " + std::to_string(c) + " target " +
              std::to_string(t));
    }
  }
}

TEST(QuantumDeterminism, RepeatedPooledRunsAreIdentical) {
  // The pool is reused across circuits; no state may leak between runs.
  util::ThreadPool pool(4);
  StateVector first(kProbeQubits, &pool);
  build_probe_circuit(first);
  StateVector second(kProbeQubits, &pool);
  build_probe_circuit(second);
  EXPECT_TRUE(bit_identical(first, second));
}

}  // namespace
}  // namespace qdc::quantum
