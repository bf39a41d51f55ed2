// Test-only access to StateVector internals, mirroring congest/testing.hpp:
// the measurement kernels take their uniform draw from an Rng, so their
// rounding edge cases (a threshold landing beyond the accumulated measure
// mass, a zero-probability branch) cannot be forced through the public
// API. This header injects the draw directly. It is a test surface only —
// src/ code must not include it (enforced by qdc_analyze's
// layering/testing-header firewall).
#pragma once

#include <cstddef>
#include <vector>

#include "quantum/state.hpp"

namespace qdc::quantum {

struct StateVectorTestAccess {
  /// The amplitudes, writable: lets kernel tests load states no gate
  /// sequence from |0...0> reaches (unnormalized, signed zeros,
  /// subnormals) and compare the kernels against a reference bit for bit.
  static std::vector<Amplitude>& amplitudes(StateVector& state) {
    return state.amplitudes_;
  }

  /// measure_all() with the uniform draw replaced by `r`, through the
  /// guarded path measure_all() itself uses: r outside [0, 1) is a
  /// ContractError (which is what the guard probes pin).
  static std::size_t collapse_all_with(StateVector& state, double r) {
    return state.collapse_all(r);
  }

  /// measure() with the uniform draw replaced by `r`, through the guarded
  /// path: forces a branch (outcome = r < P(qubit = 1)) for any r the
  /// uniform_real contract allows; r outside [0, 1) is a ContractError.
  static bool collapse_qubit_with(StateVector& state, int qubit, double r) {
    return state.collapse_qubit(qubit, r);
  }

  /// collapse_all with the r guard bypassed: the only way to
  /// deterministically pin the rounding-residue fallback (r still positive
  /// after the full scan collapses onto the highest-index basis state with
  /// nonzero probability), since no in-contract draw reaches it on a
  /// normalized state.
  static std::size_t collapse_all_residue(StateVector& state, double r) {
    return state.collapse_all_unchecked(r);
  }

  /// collapse_qubit with the r guard bypassed: forces the
  /// zero-probability branch (and its ModelError message) that no
  /// in-contract draw can reach on a normalized state.
  static bool collapse_qubit_residue(StateVector& state, int qubit,
                                     double r) {
    return state.collapse_qubit_unchecked(qubit, r);
  }
};

}  // namespace qdc::quantum
