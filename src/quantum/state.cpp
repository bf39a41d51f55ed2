#include "quantum/state.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "util/expect.hpp"
#include "util/shard.hpp"

namespace qdc::quantum {

namespace {

/// Spreads a packed pair index back into a basis index by inserting a 0 at
/// `bit_pos`: the k-th basis index whose `bit_pos` bit is clear. Gate
/// kernels enumerate pairs directly through this instead of scanning the
/// whole range and skipping half of it, so shard workloads are balanced.
std::size_t insert_zero_bit(std::size_t k, int bit_pos) {
  const std::size_t low_mask = (std::size_t{1} << bit_pos) - 1;
  return ((k >> bit_pos) << (bit_pos + 1)) | (k & low_mask);
}

/// One amplitude {re, im} in two double lanes (the GCC/Clang vector
/// extension; one SSE2 register on x86-64). Lane-wise + and * are plain
/// IEEE double operations.
using V2 = double __attribute__((vector_size(16)));

// std::complex<double> is layout-compatible with double[2] (the standard
// permits exactly this reinterpret_cast); memcpy makes the unaligned
// 16-byte load and store.
V2 load(const Amplitude& a) {
  V2 v{};
  std::memcpy(&v, reinterpret_cast<const double*>(&a), sizeof v);
  return v;
}

void store(Amplitude& a, V2 v) {
  std::memcpy(reinterpret_cast<double*>(&a), &v, sizeof v);
}

V2 swapped(V2 v) { return V2{v[1], v[0]}; }

/// One gate coefficient u in expanded real/imag form: re = {ur, ur} and
/// im = {-ui, ui}, so u * a == re * a + im * swap(a) lane by lane:
/// {ur ar + (-ui) ai, ur ai + ui ar}. That is bitwise the std::complex
/// product's fast path {ur ar - ui ai, ur ai + ui ar}, because IEEE 754
/// defines x - y as x + (-y) and round-to-nearest is symmetric under sign
/// (so (-ui) ai == -(ui ai), signed zeros included). The std::complex
/// product also carries a __muldc3 fallback for results whose real and
/// imaginary parts both come out NaN, which needs an infinite or NaN
/// input; on finite amplitudes and gates the two agree bit for bit.
struct Coefficient {
  V2 re, im;

  explicit Coefficient(Amplitude u)
      : re{u.real(), u.real()}, im{-u.imag(), u.imag()} {}

  V2 times(V2 a, V2 a_swapped) const { return re * a + im * a_swapped; }
};

/// The 2x2 pair update (a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1),
/// with the two products summed lane-wise exactly as std::complex's
/// operator+ sums them.
struct PairKernel {
  Coefficient u00, u01, u10, u11;

  explicit PairKernel(const Gate1& g)
      : u00(g.u00), u01(g.u01), u10(g.u10), u11(g.u11) {}

  void operator()(Amplitude& x0, Amplitude& x1) const {
    const V2 a0 = load(x0);
    const V2 a1 = load(x1);
    const V2 s0 = swapped(a0);
    const V2 s1 = swapped(a1);
    store(x0, u00.times(a0, s0) + u01.times(a1, s1));
    store(x1, u10.times(a0, s0) + u11.times(a1, s1));
  }
};

/// Applies `g` to pairs [begin, end) of one gate pass: pair k updates the
/// amplitudes at first_of(k) and first_of(k) + partner. The low `lo` bits
/// of k pass through to first_of(k) unchanged (every zero a kernel inserts
/// sits at bit `lo` or above), so each aligned block of 2^lo pair indices,
/// clipped to [begin, end), maps onto consecutive basis indices: first_of
/// runs once per block and the pair loop inside it is unit stride. The
/// gate's lanes are built here, once per shard, so they live in registers
/// rather than being reloaded around every amplitude store.
template <typename FirstOf>
void apply_pair_runs(Amplitude* amps, const Gate1& g, std::size_t begin,
                     std::size_t end, int lo, std::size_t partner,
                     FirstOf first_of) {
  const PairKernel kernel(g);
  const std::size_t run_mask = (std::size_t{1} << lo) - 1;
  for (std::size_t k = begin; k < end;) {
    const std::size_t stop = std::min(end, (k | run_mask) + 1);
    Amplitude* x0 = amps + first_of(k);
    Amplitude* x1 = x0 + partner;
    for (std::size_t j = 0; j < stop - k; ++j) kernel(x0[j], x1[j]);
    k = stop;
  }
}

}  // namespace

StateVector::StateVector(int qubit_count, util::ThreadPool* pool)
    : qubit_count_(qubit_count), pool_(pool) {
  QDC_EXPECT(qubit_count >= 1 && qubit_count <= kMaxQubits,
             "StateVector: qubit count must be in [1, kMaxQubits]");
  amplitudes_.assign(std::size_t{1} << qubit_count, Amplitude{0.0, 0.0});
  amplitudes_[0] = Amplitude{1.0, 0.0};
}

void StateVector::for_shards(
    std::size_t items,
    const std::function<void(int, std::size_t, std::size_t)>& body) const {
  util::run_sharded(pool_, util::ShardPlan::over(items), body);
}

int StateVector::shard_count_for(std::size_t items) const {
  return util::ShardPlan::over(items).shards;
}

Amplitude StateVector::amplitude(std::size_t basis) const {
  QDC_EXPECT(basis < amplitudes_.size(), "StateVector::amplitude: bad basis");
  return amplitudes_[basis];
}

void StateVector::apply(const Gate1& g, int qubit) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_, "StateVector::apply: bad qubit");
  const std::size_t bit = std::size_t{1} << qubit;
  for_shards(amplitudes_.size() >> 1,
             [&](int, std::size_t begin, std::size_t end) {
               apply_pair_runs(amplitudes_.data(), g, begin, end, qubit, bit,
                               [qubit](std::size_t k) {
                                 return insert_zero_bit(k, qubit);
                               });
             });
}

void StateVector::apply_controlled(const Gate1& g, int control, int target) {
  QDC_EXPECT(control >= 0 && control < qubit_count_ && target >= 0 &&
                 target < qubit_count_ && control != target,
             "StateVector::apply_controlled: bad qubits");
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const int lo = control < target ? control : target;
  const int hi = control < target ? target : control;
  // Pair k enumerates the dimension/4 basis indices with control = 1 and
  // target = 0: insert zeros at both qubit positions, then set control.
  for_shards(amplitudes_.size() >> 2,
             [&](int, std::size_t begin, std::size_t end) {
               apply_pair_runs(amplitudes_.data(), g, begin, end, lo, tbit,
                               [lo, hi, cbit](std::size_t k) {
                                 return insert_zero_bit(
                                            insert_zero_bit(k, lo), hi) |
                                        cbit;
                               });
             });
}

void StateVector::cnot(int control, int target) {
  apply_controlled(Gate1{{0, 0}, {1, 0}, {1, 0}, {0, 0}}, control, target);
}

void StateVector::cz(int control, int target) {
  apply_controlled(Gate1{{1, 0}, {0, 0}, {0, 0}, {-1, 0}}, control, target);
}

void StateVector::swap(int a, int b) {
  QDC_EXPECT(a >= 0 && a < qubit_count_ && b >= 0 && b < qubit_count_,
             "StateVector::swap: bad qubits");
  if (a == b) return;  // a qubit trivially swaps with itself
  cnot(a, b);
  cnot(b, a);
  cnot(a, b);
}

double StateVector::probability_one(int qubit) const {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::probability_one: bad qubit");
  const std::size_t bit = std::size_t{1} << qubit;
  const std::size_t half = amplitudes_.size() >> 1;
  // Shard-indexed partial sums merged serially in shard order: bit-identical
  // for any thread count (and exactly the serial left-to-right sum when the
  // state is small enough for a single shard).
  std::vector<double> partial(
      static_cast<std::size_t>(shard_count_for(half)), 0.0);
  for_shards(half, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      sum += std::norm(amplitudes_[insert_zero_bit(k, qubit) | bit]);
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  double p = 0.0;
  for (const double v : partial) p += v;
  return p;
}

bool StateVector::measure(int qubit, Rng& rng) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::measure: bad qubit");
  return collapse_qubit(qubit, uniform_real(rng));
}

bool StateVector::collapse_qubit(int qubit, double r) {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             "StateVector::collapse_qubit: qubit out of range (qubit = " +
                 std::to_string(qubit) + ", qubit_count = " +
                 std::to_string(qubit_count_) + ")");
  QDC_EXPECT(r >= 0.0 && r < 1.0,
             "StateVector::collapse_qubit: uniform draw outside [0, 1) "
             "(r = " +
                 std::to_string(r) + ")");
  return collapse_qubit_unchecked(qubit, r);
}

bool StateVector::collapse_qubit_unchecked(int qubit, double r) {
  const double p1 = probability_one(qubit);
  const bool outcome = r < p1;
  const std::size_t bit = std::size_t{1} << qubit;
  const double keep_norm = std::sqrt(outcome ? p1 : 1.0 - p1);
  QDC_CHECK(keep_norm > 0.0,
            "StateVector::measure: zero-probability branch |" +
                std::string(outcome ? "1" : "0") + "> on qubit " +
                std::to_string(qubit));
  for_shards(amplitudes_.size(), [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const bool is_one = (i & bit) != 0;
      if (is_one == outcome) {
        amplitudes_[i] /= keep_norm;
      } else {
        amplitudes_[i] = Amplitude{0.0, 0.0};
      }
    }
  });
  return outcome;
}

std::size_t StateVector::measure_all(Rng& rng) {
  return collapse_all(uniform_real(rng));
}

std::size_t StateVector::collapse_all(double r) {
  QDC_EXPECT(r >= 0.0 && r < 1.0,
             "StateVector::collapse_all: uniform draw outside [0, 1) "
             "(r = " +
                 std::to_string(r) + ")");
  return collapse_all_unchecked(r);
}

std::size_t StateVector::collapse_all_unchecked(double r) {
  const std::size_t dim = amplitudes_.size();
  const int shards = shard_count_for(dim);
  // Per-shard measure mass and highest nonzero-probability index, tallied
  // into shard-indexed slots and consumed serially in shard order below.
  std::vector<double> mass(static_cast<std::size_t>(shards), 0.0);
  std::vector<std::size_t> top_nonzero(static_cast<std::size_t>(shards), dim);
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    std::size_t top = dim;
    for (std::size_t i = begin; i < end; ++i) {
      const double p = std::norm(amplitudes_[i]);
      sum += p;
      if (p > 0.0) top = i;
    }
    mass[static_cast<std::size_t>(s)] = sum;
    top_nonzero[static_cast<std::size_t>(s)] = top;
  });

  // Walk shard masses to find the shard the threshold lands in, then scan
  // amplitudes serially from there. Falling off the end of that shard
  // (rounding: the batched mass and the element-by-element subtraction
  // disagree by an ulp) just continues into the next one.
  std::size_t outcome = dim;
  int first = shards;
  for (int s = 0; s < shards; ++s) {
    if (r - mass[static_cast<std::size_t>(s)] <= 0.0) {
      first = s;
      break;
    }
    r -= mass[static_cast<std::size_t>(s)];
  }
  if (first < shards) {
    const util::ShardPlan plan = util::ShardPlan::over(dim);
    for (std::size_t i = plan.begin(first); i < dim; ++i) {
      r -= std::norm(amplitudes_[i]);
      if (r <= 0.0) {
        outcome = i;
        break;
      }
    }
  }
  if (outcome == dim) {
    // Rounding left r > 0 after the scan: collapse onto the highest-index
    // basis state that actually carries probability, never onto a
    // zero-amplitude one.
    for (int s = shards - 1; s >= 0 && outcome == dim; --s) {
      outcome = top_nonzero[static_cast<std::size_t>(s)];
    }
    QDC_CHECK(outcome != dim,
              "StateVector::measure_all: state carries no probability mass");
  }

  for_shards(dim, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      amplitudes_[i] = Amplitude{0.0, 0.0};
    }
  });
  amplitudes_[outcome] = Amplitude{1.0, 0.0};
  return outcome;
}

double StateVector::probability_of(std::size_t basis) const {
  QDC_EXPECT(basis < amplitudes_.size(),
             "StateVector::probability_of: basis index out of range "
             "(basis = " +
                 std::to_string(basis) + ", dimension = " +
                 std::to_string(amplitudes_.size()) + ")");
  return std::norm(amplitudes_[basis]);
}

double StateVector::norm_squared() const {
  const std::size_t dim = amplitudes_.size();
  std::vector<double> partial(
      static_cast<std::size_t>(shard_count_for(dim)), 0.0);
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += std::norm(amplitudes_[i]);
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  double total = 0.0;
  for (const double v : partial) total += v;
  return total;
}

double StateVector::fidelity(const StateVector& other) const {
  QDC_EXPECT(qubit_count_ == other.qubit_count_,
             "StateVector::fidelity: qubit count mismatch (this = " +
                 std::to_string(qubit_count_) + ", other = " +
                 std::to_string(other.qubit_count_) + ")");
  const std::size_t dim = amplitudes_.size();
  std::vector<Amplitude> partial(
      static_cast<std::size_t>(shard_count_for(dim)), Amplitude{0.0, 0.0});
  for_shards(dim, [&](int s, std::size_t begin, std::size_t end) {
    // sum += conj(a) * b, expanded: conj(a) * b is {ar br - (-ai) bi,
    // ar bi + (-ai) br}, which is bitwise {ar br + ai bi, ar bi - ai br}
    // for the same reasons as Coefficient's product.
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const Amplitude a = amplitudes_[i];
      const Amplitude b = other.amplitudes_[i];
      re += a.real() * b.real() + a.imag() * b.imag();
      im += a.real() * b.imag() - a.imag() * b.real();
    }
    partial[static_cast<std::size_t>(s)] = Amplitude{re, im};
  });
  Amplitude inner{0.0, 0.0};
  for (const Amplitude& v : partial) inner += v;
  return std::norm(inner);
}

}  // namespace qdc::quantum
