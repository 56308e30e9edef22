// From SQL text to a quantum-optimized, executed plan: the full downstream-
// user path. A conjunctive query is parsed, bound against catalog statistics,
// reformulated as a QUBO (Figure 2), solved on the simulated annealer, and
// the resulting plan is executed and checked against the classical optimum.
//
// Build & run:  ./build/examples/sql_to_quantum_plan

#include <cstdio>

#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/db/executor.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/db/query_parser.h"
#include "qdm/qopt/join_order_qubo.h"

namespace {

qdm::db::Table MakeTable(const std::string& name, int rows, int key_domain,
                         qdm::Rng* rng) {
  qdm::db::Table table(name,
                       qdm::db::Schema({{"id", qdm::db::ValueType::kInt64},
                                        {"fk", qdm::db::ValueType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    table.AppendUnchecked({qdm::db::Value(static_cast<int64_t>(i)),
                           qdm::db::Value(rng->UniformInt(0, key_domain - 1))});
  }
  return table;
}

}  // namespace

int main() {
  qdm::Rng rng(17);

  // A small star schema: facts reference three dimensions by id.
  qdm::db::Catalog catalog;
  QDM_CHECK(catalog.AddTable(MakeTable("facts", 300, 40, &rng)).ok());
  QDM_CHECK(catalog.AddTable(MakeTable("dim_a", 40, 40, &rng)).ok());
  QDM_CHECK(catalog.AddTable(MakeTable("dim_b", 60, 40, &rng)).ok());

  const std::string sql =
      "SELECT * FROM facts, dim_a, dim_b "
      "WHERE facts.fk = dim_a.id AND facts.id = dim_b.fk";
  std::printf("query: %s\n\n", sql.c_str());

  auto parsed = qdm::db::ParseConjunctiveQuery(sql);
  QDM_CHECK(parsed.ok()) << parsed.status();
  auto graph = qdm::db::BuildJoinGraph(*parsed, catalog);
  QDM_CHECK(graph.ok()) << graph.status();
  std::printf("bound join graph (selectivities from catalog statistics):\n%s\n",
              graph->ToString().c_str());

  // Classical reference.
  qdm::db::PlanResult dp = qdm::db::OptimalLeftDeepPlan(*graph);

  // Quantum path: QUBO -> registry-dispatched annealer -> decoded order.
  qdm::anneal::SolverOptions options;
  options.num_reads = 30;
  options.num_sweeps = 800;
  options.rng = &rng;
  auto solved =
      qdm::qopt::SolveJoinOrder(*graph, "simulated_annealing", options);
  QDM_CHECK(solved.ok()) << solved.status();
  qdm::db::JoinTreeRef quantum_plan =
      qdm::db::LeftDeepFromPermutation(solved->order);

  auto dp_result = qdm::db::ExecuteJoinTree(dp.tree, *graph, catalog);
  auto quantum_result = qdm::db::ExecuteJoinTree(quantum_plan, *graph, catalog);
  QDM_CHECK(dp_result.ok() && quantum_result.ok());

  std::printf("classical DP plan:  %s  (C_out %.0f, %zu rows)\n",
              qdm::db::TreeToString(dp.tree, *graph).c_str(), dp.cost,
              dp_result->num_rows());
  std::printf("quantum QUBO plan:  %s  (C_out %.0f, %zu rows)\n",
              qdm::db::TreeToString(quantum_plan, *graph).c_str(),
              qdm::db::CoutCost(quantum_plan, *graph),
              quantum_result->num_rows());
  QDM_CHECK(qdm::db::TableFingerprint(*dp_result) ==
            qdm::db::TableFingerprint(*quantum_result))
      << "both plans must compute the same relation";
  std::printf(
      "\nboth plans return identical relations; SQL -> QUBO -> "
      "annealer -> executed plan, end to end.\n");
  return 0;
}
