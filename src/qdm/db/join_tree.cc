#include "qdm/db/join_tree.h"

#include "qdm/common/check.h"

namespace qdm {
namespace db {

JoinTreeRef MakeLeaf(int relation) {
  QDM_CHECK_GE(relation, 0);
  auto node = std::make_shared<JoinTree>();
  node->relation = relation;
  return node;
}

JoinTreeRef MakeJoin(JoinTreeRef left, JoinTreeRef right) {
  QDM_CHECK(left != nullptr && right != nullptr);
  auto node = std::make_shared<JoinTree>();
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

uint32_t TreeMask(const JoinTreeRef& tree) {
  QDM_CHECK(tree != nullptr);
  if (tree->is_leaf()) return uint32_t{1} << tree->relation;
  return TreeMask(tree->left) | TreeMask(tree->right);
}

int TreeSize(const JoinTreeRef& tree) {
  QDM_CHECK(tree != nullptr);
  if (tree->is_leaf()) return 1;
  return TreeSize(tree->left) + TreeSize(tree->right);
}

bool IsLeftDeep(const JoinTreeRef& tree) {
  QDM_CHECK(tree != nullptr);
  if (tree->is_leaf()) return true;
  return tree->right->is_leaf() && IsLeftDeep(tree->left);
}

double CoutCost(const JoinTreeRef& tree, const JoinGraph& graph) {
  QDM_CHECK(tree != nullptr);
  if (tree->is_leaf()) return 0.0;
  return graph.SubsetCardinality(TreeMask(tree)) + CoutCost(tree->left, graph) +
         CoutCost(tree->right, graph);
}

JoinTreeRef LeftDeepFromPermutation(const std::vector<int>& order) {
  QDM_CHECK(!order.empty());
  JoinTreeRef tree = MakeLeaf(order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    tree = MakeJoin(tree, MakeLeaf(order[i]));
  }
  return tree;
}

double PermutationCost(const std::vector<int>& order, const JoinGraph& graph) {
  QDM_CHECK_GE(order.size(), 1u);
  double cost = 0.0;
  uint32_t mask = uint32_t{1} << order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    mask |= uint32_t{1} << order[i];
    cost += graph.SubsetCardinality(mask);
  }
  return cost;
}

std::string TreeToString(const JoinTreeRef& tree, const JoinGraph& graph) {
  QDM_CHECK(tree != nullptr);
  if (tree->is_leaf()) return graph.relations()[tree->relation].name;
  return "(" + TreeToString(tree->left, graph) + " JOIN " +
         TreeToString(tree->right, graph) + ")";
}

}  // namespace db
}  // namespace qdm
