// E3 -- Paper Sec III-A: "To search a specific record in an unsorted database
// of N records, classical algorithms require O(N) operations, while Grover's
// algorithm achieves this in O(sqrt(N)) operations."
//
// Regenerates the query-complexity series: for each N, the measured oracle
// queries of the classical random scan (expected (N+1)/2), textbook Grover
// (floor(pi/4 sqrt(N))), and BBHT when the match count is unknown; plus
// Grover's pre-measurement success probability.

#include <cmath>
#include <cstdio>

#include "qdm/algo/grover.h"
#include "qdm/common/rng.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"
#include "qdm/qdb/quantum_database.h"

int main() {
  qdm::Rng rng(2024);
  qdm::TablePrinter table({"N", "classical avg", "grover", "pi/4*sqrt(N)",
                           "bbht avg", "grover P(success)", "speedup"});

  for (int n = 4; n <= 12; n += 2) {
    const uint64_t size = uint64_t{1} << n;
    std::vector<int64_t> records(size);
    for (uint64_t i = 0; i < size; ++i) records[i] = static_cast<int64_t>(i);
    auto db = qdm::qdb::QuantumDatabase::Create(records);
    QDM_CHECK(db.ok());

    const int kTrials = 30;
    double classical_total = 0, grover_total = 0, bbht_total = 0, success = 0;
    for (int t = 0; t < kTrials; ++t) {
      const int64_t key = rng.UniformInt(0, static_cast<int64_t>(size) - 1);
      qdm::qdb::SearchStats c =
          db->ClassicalSearchWhere([&](int64_t r) { return r == key; }, &rng);
      classical_total += static_cast<double>(c.oracle_queries);

      qdm::algo::CountingOracle oracle(
          [&](uint64_t x) { return records[x] == key; });
      qdm::algo::GroverResult g = qdm::algo::GroverSearch(n, &oracle, 1, &rng);
      grover_total += static_cast<double>(g.oracle_queries);
      success += g.success_probability;

      qdm::qdb::SearchStats b =
          db->GroverSearchWhere([&](int64_t r) { return r == key; }, &rng);
      bbht_total += static_cast<double>(b.oracle_queries);
    }
    const double classical_avg = classical_total / kTrials;
    const double grover_avg = grover_total / kTrials;
    table.AddRow({qdm::StrFormat("%llu", static_cast<unsigned long long>(size)),
                  qdm::StrFormat("%.1f", classical_avg),
                  qdm::StrFormat("%.0f", grover_avg),
                  qdm::StrFormat(
                      "%.1f", M_PI / 4 * std::sqrt(static_cast<double>(size))),
                  qdm::StrFormat("%.1f", bbht_total / kTrials),
                  qdm::StrFormat("%.4f", success / kTrials),
                  qdm::StrFormat("%.1fx", classical_avg / grover_avg)});
  }
  std::printf("E3: Grover vs classical database search (oracle queries)\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Shape check: classical grows ~N/2, Grover ~pi/4 sqrt(N); the\n"
      "speedup column should roughly double per 4x N.\n");
  return 0;
}
