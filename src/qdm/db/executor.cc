#include "qdm/db/executor.h"

#include <algorithm>
#include <unordered_map>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace db {

namespace {

/// Executes a subtree, producing a table with "Relation.column" names.
Result<Table> ExecuteNode(const JoinTreeRef& tree, const JoinGraph& graph,
                          const Catalog& catalog) {
  if (tree->is_leaf()) {
    const RelationInfo& info = graph.relations()[tree->relation];
    QDM_ASSIGN_OR_RETURN(const Table* base, catalog.GetTable(info.name));
    std::vector<Column> columns;
    for (const Column& c : base->schema().columns()) {
      columns.push_back(Column{info.name + "." + c.name, c.type});
    }
    Table renamed(info.name, Schema(std::move(columns)));
    for (const Row& row : base->rows()) renamed.AppendUnchecked(row);
    return renamed;
  }

  QDM_ASSIGN_OR_RETURN(Table left, ExecuteNode(tree->left, graph, catalog));
  QDM_ASSIGN_OR_RETURN(Table right, ExecuteNode(tree->right, graph, catalog));

  // Collect join predicates crossing the cut, as (left index, right index).
  const uint32_t left_mask = TreeMask(tree->left);
  const uint32_t right_mask = TreeMask(tree->right);
  std::vector<std::pair<size_t, size_t>> predicates;
  for (const JoinEdge& e : graph.edges()) {
    int left_rel = -1, right_rel = -1;
    std::string left_col, right_col;
    if ((left_mask >> e.a & 1) && (right_mask >> e.b & 1)) {
      left_rel = e.a;
      right_rel = e.b;
      left_col = e.left_column;
      right_col = e.right_column;
    } else if ((left_mask >> e.b & 1) && (right_mask >> e.a & 1)) {
      left_rel = e.b;
      right_rel = e.a;
      left_col = e.right_column;
      right_col = e.left_column;
    } else {
      continue;
    }
    if (left_col.empty() || right_col.empty()) {
      return Status::FailedPrecondition(
          StrFormat("edge %d-%d has no physical column binding; cannot execute",
                    e.a, e.b));
    }
    const std::string lq = graph.relations()[left_rel].name + "." + left_col;
    const std::string rq = graph.relations()[right_rel].name + "." + right_col;
    QDM_ASSIGN_OR_RETURN(size_t li, left.schema().ColumnIndex(lq));
    QDM_ASSIGN_OR_RETURN(size_t ri, right.schema().ColumnIndex(rq));
    predicates.emplace_back(li, ri);
  }

  Table output("join", left.schema().Concat(right.schema()));

  if (predicates.empty()) {
    // Cross product.
    for (const Row& lr : left.rows()) {
      for (const Row& rr : right.rows()) {
        Row combined = lr;
        combined.insert(combined.end(), rr.begin(), rr.end());
        output.AppendUnchecked(std::move(combined));
      }
    }
    return output;
  }

  // Hash join on the first predicate; residual predicates filter.
  const auto [build_col, probe_col] = predicates[0];
  std::unordered_multimap<Value, size_t, ValueHasher> hash_table;
  hash_table.reserve(left.num_rows());
  for (size_t i = 0; i < left.num_rows(); ++i) {
    hash_table.emplace(left.row(i)[build_col], i);
  }
  for (const Row& rr : right.rows()) {
    auto [begin, end] = hash_table.equal_range(rr[probe_col]);
    for (auto it = begin; it != end; ++it) {
      const Row& lr = left.row(it->second);
      bool keep = true;
      for (size_t p = 1; p < predicates.size(); ++p) {
        if (!(lr[predicates[p].first] == rr[predicates[p].second])) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      Row combined = lr;
      combined.insert(combined.end(), rr.begin(), rr.end());
      output.AppendUnchecked(std::move(combined));
    }
  }
  return output;
}

}  // namespace

Result<Table> ExecuteJoinTree(const JoinTreeRef& tree, const JoinGraph& graph,
                              const Catalog& catalog) {
  QDM_CHECK(tree != nullptr);
  return ExecuteNode(tree, graph, catalog);
}

uint64_t TableFingerprint(const Table& table) {
  // Sort columns by name so plans that emit columns in different orders
  // fingerprint identically; then combine sorted row hashes (multiset hash).
  std::vector<size_t> col_order(table.schema().num_columns());
  for (size_t i = 0; i < col_order.size(); ++i) col_order[i] = i;
  std::sort(col_order.begin(), col_order.end(), [&](size_t a, size_t b) {
    return table.schema().column(a).name < table.schema().column(b).name;
  });

  std::vector<uint64_t> row_hashes;
  row_hashes.reserve(table.num_rows());
  for (const Row& row : table.rows()) {
    uint64_t h = 1469598103934665603ull;
    for (size_t c : col_order) {
      h ^= row[c].Hash();
      h *= 1099511628211ull;
    }
    row_hashes.push_back(h);
  }
  std::sort(row_hashes.begin(), row_hashes.end());
  uint64_t combined = 14695981039346656037ull;
  for (uint64_t h : row_hashes) {
    combined ^= h;
    combined *= 1099511628211ull;
  }
  return combined;
}

}  // namespace db
}  // namespace qdm
