#include "qdm/qdb/quantum_database.h"

#include <cmath>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace qdb {

namespace {

bool IsPowerOfTwo(size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

int Log2(size_t n) {
  int k = 0;
  while ((size_t{1} << k) < n) ++k;
  return k;
}

}  // namespace

QuantumDatabase::QuantumDatabase(std::vector<int64_t> records)
    : records_(std::move(records)), num_qubits_(Log2(records_.size())) {}

Result<QuantumDatabase> QuantumDatabase::Create(std::vector<int64_t> records) {
  if (records.empty() || !IsPowerOfTwo(records.size())) {
    return Status::InvalidArgument(StrFormat(
        "record count must be a power of two, got %zu", records.size()));
  }
  if (records.size() > (size_t{1} << 24)) {
    return Status::ResourceExhausted("database exceeds simulator budget");
  }
  return QuantumDatabase(std::move(records));
}

uint64_t QuantumDatabase::CountWhere(
    const std::function<bool(int64_t)>& predicate) const {
  uint64_t count = 0;
  for (int64_t r : records_) {
    if (predicate(r)) ++count;
  }
  return count;
}

SearchStats QuantumDatabase::GroverSearchEqual(int64_t key, Rng* rng) const {
  SearchStats stats;
  const uint64_t matches = CountWhere([&](int64_t r) { return r == key; });
  if (matches == 0) return stats;

  algo::CountingOracle oracle(
      [this, key](uint64_t index) { return records_[index] == key; });
  algo::GroverResult r = algo::GroverSearch(num_qubits_, &oracle, matches, rng);
  stats.found = r.found;
  stats.index = r.measured;
  stats.record = records_[r.measured];
  stats.oracle_queries = r.oracle_queries;
  return stats;
}

SearchStats QuantumDatabase::GroverSearchWhere(
    const std::function<bool(int64_t)>& predicate, Rng* rng) const {
  algo::CountingOracle oracle([this, &predicate](uint64_t index) {
    return predicate(records_[index]);
  });
  algo::GroverResult r = algo::BbhtSearch(num_qubits_, &oracle, rng);
  SearchStats stats;
  stats.found = r.found;
  stats.index = r.measured;
  stats.record = r.found ? records_[r.measured] : 0;
  stats.oracle_queries = r.oracle_queries;
  return stats;
}

SearchStats QuantumDatabase::ClassicalSearchWhere(
    const std::function<bool(int64_t)>& predicate, Rng* rng) const {
  algo::CountingOracle oracle([this, &predicate](uint64_t index) {
    return predicate(records_[index]);
  });
  algo::ClassicalSearchResult r =
      algo::ClassicalLinearSearch(records_.size(), &oracle, rng);
  SearchStats stats;
  stats.found = r.found;
  stats.index = r.found_index;
  stats.record = r.found ? records_[r.found_index] : 0;
  stats.oracle_queries = r.queries;
  return stats;
}

namespace {

SetOpStats RunSetOpSearch(const MembershipOracle& combined, int universe_qubits,
                          Rng* rng) {
  SetOpStats stats;
  {
    algo::CountingOracle oracle(combined);
    algo::GroverResult r = algo::BbhtSearch(universe_qubits, &oracle, rng);
    stats.found = r.found;
    stats.witness = r.measured;
    stats.quantum_queries = r.oracle_queries;
  }
  {
    algo::CountingOracle oracle(combined);
    algo::ClassicalSearchResult r = algo::ClassicalLinearSearch(
        uint64_t{1} << universe_qubits, &oracle, rng);
    stats.classical_queries = r.queries;
  }
  return stats;
}

}  // namespace

SetOpStats QuantumIntersectionSearch(const MembershipOracle& in_a,
                                     const MembershipOracle& in_b,
                                     int universe_qubits, Rng* rng) {
  return RunSetOpSearch([&](uint64_t x) { return in_a(x) && in_b(x); },
                        universe_qubits, rng);
}

SetOpStats QuantumUnionSearch(const MembershipOracle& in_a,
                              const MembershipOracle& in_b, int universe_qubits,
                              Rng* rng) {
  return RunSetOpSearch([&](uint64_t x) { return in_a(x) || in_b(x); },
                        universe_qubits, rng);
}

SetOpStats QuantumDifferenceSearch(const MembershipOracle& in_a,
                                   const MembershipOracle& in_b,
                                   int universe_qubits, Rng* rng) {
  return RunSetOpSearch([&](uint64_t x) { return in_a(x) && !in_b(x); },
                        universe_qubits, rng);
}

namespace {

int CeilLog2(size_t n) {
  int k = 0;
  while ((size_t{1} << k) < n) ++k;
  return k;
}

}  // namespace

JoinPairStats QuantumJoinSearch(const std::vector<int64_t>& left,
                                const std::vector<int64_t>& right, Rng* rng) {
  QDM_CHECK(!left.empty() && !right.empty());
  const int left_bits = std::max(1, CeilLog2(left.size()));
  const int right_bits = std::max(1, CeilLog2(right.size()));
  const uint64_t left_mask = (uint64_t{1} << left_bits) - 1;

  algo::CountingOracle oracle([&](uint64_t z) {
    const uint64_t i = z & left_mask;
    const uint64_t j = z >> left_bits;
    return i < left.size() && j < right.size() && left[i] == right[j];
  });
  algo::GroverResult r = algo::BbhtSearch(left_bits + right_bits, &oracle, rng);
  JoinPairStats stats;
  stats.found = r.found;
  stats.left_index = r.measured & left_mask;
  stats.right_index = r.measured >> left_bits;
  stats.oracle_queries = r.oracle_queries;
  return stats;
}

JoinAllStats QuantumJoinAll(const std::vector<int64_t>& left,
                            const std::vector<int64_t>& right, Rng* rng) {
  QDM_CHECK(!left.empty() && !right.empty());
  const int left_bits = std::max(1, CeilLog2(left.size()));
  const int right_bits = std::max(1, CeilLog2(right.size()));
  const uint64_t left_mask = (uint64_t{1} << left_bits) - 1;

  JoinAllStats stats;
  std::set<uint64_t> seen;
  while (true) {
    algo::CountingOracle oracle([&](uint64_t z) {
      if (seen.count(z)) return false;  // Exclude already-reported pairs.
      const uint64_t i = z & left_mask;
      const uint64_t j = z >> left_bits;
      return i < left.size() && j < right.size() && left[i] == right[j];
    });
    algo::GroverResult r =
        algo::BbhtSearch(left_bits + right_bits, &oracle, rng);
    stats.oracle_queries += r.oracle_queries;
    if (!r.found) break;
    seen.insert(r.measured);
    stats.pairs.emplace_back(r.measured & left_mask, r.measured >> left_bits);
  }
  return stats;
}

SuperpositionRelation::SuperpositionRelation(int num_qubits)
    : num_qubits_(num_qubits) {
  QDM_CHECK(num_qubits > 0 && num_qubits <= 24);
}

Status SuperpositionRelation::Insert(uint64_t label) {
  if (label >= (uint64_t{1} << num_qubits_)) {
    return Status::OutOfRange(StrFormat("label %llu exceeds %d-qubit space",
                                        static_cast<unsigned long long>(label),
                                        num_qubits_));
  }
  if (!members_.insert(label).second) {
    return Status::AlreadyExists("label already present (relations are sets)");
  }
  return Status::Ok();
}

Status SuperpositionRelation::Delete(uint64_t label) {
  if (members_.erase(label) == 0) {
    return Status::NotFound("label not present");
  }
  return Status::Ok();
}

Status SuperpositionRelation::Update(uint64_t old_label, uint64_t new_label) {
  if (!members_.count(old_label)) return Status::NotFound("old label missing");
  if (new_label >= (uint64_t{1} << num_qubits_)) {
    return Status::OutOfRange("new label exceeds register");
  }
  if (members_.count(new_label)) {
    return Status::AlreadyExists("new label already present");
  }
  members_.erase(old_label);
  members_.insert(new_label);
  return Status::Ok();
}

sim::Statevector SuperpositionRelation::PrepareState() const {
  QDM_CHECK(!members_.empty()) << "cannot encode the empty relation";
  std::vector<Complex> amplitudes(size_t{1} << num_qubits_, Complex(0, 0));
  const double amp = 1.0 / std::sqrt(static_cast<double>(members_.size()));
  for (uint64_t label : members_) amplitudes[label] = Complex(amp, 0);
  return sim::Statevector::FromAmplitudes(std::move(amplitudes));
}

Result<uint64_t> SuperpositionRelation::SampleMember(Rng* rng) const {
  if (members_.empty()) return Status::FailedPrecondition("relation is empty");
  return PrepareState().SampleBasisState(rng);
}

}  // namespace qdb
}  // namespace qdm
