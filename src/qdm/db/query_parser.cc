#include "qdm/db/query_parser.h"

#include <algorithm>
#include <cctype>

#include "qdm/common/strings.h"

namespace qdm {
namespace db {

namespace {

struct Tokenizer {
  std::string text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }

  /// Next token: identifier, or one of ". , = *".
  Result<std::string> Next() {
    SkipSpace();
    if (pos >= text.size()) {
      return Status::InvalidArgument("unexpected end of query");
    }
    const char c = text[pos];
    if (c == '.' || c == ',' || c == '=' || c == '*') {
      ++pos;
      return std::string(1, c);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_')) {
        ++pos;
      }
      return text.substr(start, pos - start);
    }
    return Status::InvalidArgument(StrFormat("unexpected character '%c'", c));
  }

  /// Consumes the next token and checks it case-insensitively.
  Status Expect(const std::string& expected) {
    QDM_ASSIGN_OR_RETURN(std::string token, Next());
    if (ToLower(token) != ToLower(expected)) {
      return Status::InvalidArgument(StrFormat(
          "expected '%s', got '%s'", expected.c_str(), token.c_str()));
    }
    return Status::Ok();
  }
};

bool IsIdentifier(const std::string& token) {
  if (token.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(token[0])) && token[0] != '_') {
    return false;
  }
  return true;
}

/// Parses "table.column".
Result<std::pair<std::string, std::string>> ParseColumnRef(Tokenizer* t) {
  QDM_ASSIGN_OR_RETURN(std::string table, t->Next());
  if (!IsIdentifier(table)) {
    return Status::InvalidArgument("expected table name, got '" + table + "'");
  }
  QDM_RETURN_IF_ERROR(t->Expect("."));
  QDM_ASSIGN_OR_RETURN(std::string column, t->Next());
  if (!IsIdentifier(column)) {
    return Status::InvalidArgument("expected column name, got '" + column +
                                   "'");
  }
  return std::make_pair(table, column);
}

}  // namespace

Result<ParsedQuery> ParseConjunctiveQuery(const std::string& sql) {
  Tokenizer t{sql};
  ParsedQuery query;

  QDM_RETURN_IF_ERROR(t.Expect("select"));
  QDM_RETURN_IF_ERROR(t.Expect("*"));
  QDM_RETURN_IF_ERROR(t.Expect("from"));

  // Table list.
  while (true) {
    QDM_ASSIGN_OR_RETURN(std::string table, t.Next());
    if (!IsIdentifier(table)) {
      return Status::InvalidArgument("expected table name, got '" + table +
                                     "'");
    }
    for (const std::string& existing : query.tables) {
      if (existing == table) {
        return Status::InvalidArgument("duplicate table " + table +
                                       " (self-joins need aliases, which this "
                                       "dialect does not support)");
      }
    }
    query.tables.push_back(table);
    if (t.AtEnd()) return query;  // No WHERE clause.
    QDM_ASSIGN_OR_RETURN(std::string sep, t.Next());
    if (sep == ",") continue;
    if (ToLower(sep) == "where") break;
    return Status::InvalidArgument("expected ',' or WHERE, got '" + sep + "'");
  }

  // Predicate list.
  while (true) {
    QDM_ASSIGN_OR_RETURN(auto left, ParseColumnRef(&t));
    QDM_RETURN_IF_ERROR(t.Expect("="));
    QDM_ASSIGN_OR_RETURN(auto right, ParseColumnRef(&t));
    query.predicates.push_back(ParsedQuery::JoinPredicate{
        left.first, left.second, right.first, right.second});
    if (t.AtEnd()) break;
    QDM_RETURN_IF_ERROR(t.Expect("and"));
  }
  return query;
}

Result<JoinGraph> BuildJoinGraph(const ParsedQuery& query,
                                 const Catalog& catalog) {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query lists no tables");
  }
  JoinGraph graph;
  std::vector<TableStats> stats;
  for (const std::string& table : query.tables) {
    QDM_ASSIGN_OR_RETURN(TableStats s, catalog.GetStats(table));
    graph.AddRelation(table, std::max<uint64_t>(1, s.row_count));
    stats.push_back(std::move(s));
  }

  auto relation_id = [&](const std::string& table) {
    for (size_t i = 0; i < query.tables.size(); ++i) {
      if (query.tables[i] == table) return static_cast<int>(i);
    }
    return -1;
  };

  for (const auto& p : query.predicates) {
    const int left = relation_id(p.left_table);
    const int right = relation_id(p.right_table);
    if (left < 0 || right < 0) {
      return Status::InvalidArgument(
          StrFormat("predicate references table %s not in FROM",
                    (left < 0 ? p.left_table : p.right_table).c_str()));
    }
    if (left == right) {
      return Status::InvalidArgument("single-table predicates unsupported");
    }
    QDM_ASSIGN_OR_RETURN(const Table* left_table,
                         catalog.GetTable(p.left_table));
    QDM_ASSIGN_OR_RETURN(const Table* right_table,
                         catalog.GetTable(p.right_table));
    QDM_ASSIGN_OR_RETURN(size_t left_col,
                         left_table->schema().ColumnIndex(p.left_column));
    QDM_ASSIGN_OR_RETURN(size_t right_col,
                         right_table->schema().ColumnIndex(p.right_column));

    // System-R uniform estimate: 1 / max(V(left col), V(right col)).
    const uint64_t distinct = std::max<uint64_t>(
        1, std::max(stats[left].distinct_counts[left_col],
                    stats[right].distinct_counts[right_col]));
    graph.AddEdge(left, right, 1.0 / static_cast<double>(distinct),
                  p.left_column, p.right_column);
  }
  return graph;
}

}  // namespace db
}  // namespace qdm
