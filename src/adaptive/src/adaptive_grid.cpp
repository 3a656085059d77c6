#include "csg/adaptive/adaptive_grid.hpp"

#include <algorithm>
#include <cmath>

#include "csg/core/level_enumeration.hpp"

namespace csg::adaptive {

PointKey make_key(const LevelVector& l, const IndexVector& i) {
  PointKey key;
  key.size = l.size();
  for (dim_t t = 0; t < l.size(); ++t) {
    CSG_ASSERT(i[t] < (index1d_t{1} << 58));
    key.words[t] = (static_cast<std::uint64_t>(l[t]) << 58) | i[t];
  }
  return key;
}

AdaptiveSparseGrid::AdaptiveSparseGrid(dim_t d) : d_(d) {
  CSG_EXPECTS(d >= 1 && d <= kMaxDim);
  GridPoint root{LevelVector(d, 0), IndexVector(d, 1)};
  nodes_.emplace(make_key(root.level, root.index), Node{root, 0, 0});
}

AdaptiveSparseGrid::AdaptiveSparseGrid(dim_t d, level_t n)
    : AdaptiveSparseGrid(d) {
  CSG_EXPECTS(n >= 1 && n <= kMaxLevel);
  for (level_t j = 0; j < n; ++j) {
    for (const LevelVector& l : LevelRange(d, j)) {
      IndexVector i(d, 1);
      do {
        nodes_.emplace(make_key(l, i), Node{{l, i}, 0, 0});
      } while (advance_index(l, i));
    }
  }
}

bool AdaptiveSparseGrid::contains(const LevelVector& l,
                                  const IndexVector& i) const {
  return nodes_.contains(make_key(l, i));
}

const AdaptiveSparseGrid::Node* AdaptiveSparseGrid::find(
    const LevelVector& l, const IndexVector& i) const {
  const auto it = nodes_.find(make_key(l, i));
  return it == nodes_.end() ? nullptr : &it->second;
}

std::size_t AdaptiveSparseGrid::insert(const GridPoint& gp) {
  CSG_EXPECTS(gp.level.size() == d_ && valid_point(gp));
  const PointKey key = make_key(gp.level, gp.index);
  if (nodes_.contains(key)) return 0;
  std::size_t added = 1;
  nodes_.emplace(key, Node{gp, 0, 0});
  // Closure: both 1d hierarchical parents in every dimension.
  for (dim_t t = 0; t < d_; ++t) {
    for (const bool right : {false, true}) {
      const Parent1d p = right ? right_parent_1d(gp.level[t], gp.index[t])
                               : left_parent_1d(gp.level[t], gp.index[t]);
      if (p.is_boundary) continue;
      GridPoint parent = gp;
      parent.level[t] = p.level;
      parent.index[t] = p.index;
      added += insert(parent);
    }
  }
  return added;
}

std::size_t AdaptiveSparseGrid::refine_point(const GridPoint& gp) {
  CSG_EXPECTS(contains(gp.level, gp.index));
  std::size_t added = 0;
  for (dim_t t = 0; t < d_; ++t) {
    for (const index1d_t child_index : {left_child_index_1d(gp.index[t]),
                                        right_child_index_1d(gp.index[t])}) {
      GridPoint child = gp;
      child.level[t] = gp.level[t] + 1;
      child.index[t] = child_index;
      added += insert(child);
    }
  }
  return added;
}

void AdaptiveSparseGrid::sample(
    const std::function<real_t(const CoordVector&)>& f) {
  for (auto& [key, node] : nodes_) node.nodal = f(coordinates(node.point));
}

void AdaptiveSparseGrid::hierarchize() {
  std::vector<Node*> order;
  order.reserve(nodes_.size());
  for (auto& [key, node] : nodes_) {
    node.surplus = 0;
    order.push_back(&node);
  }
  std::sort(order.begin(), order.end(), [](const Node* a, const Node* b) {
    return a->point.level.l1_norm() < b->point.level.l1_norm();
  });
  for (Node* node : order) {
    const CoordVector x = coordinates(node->point);
    node->surplus = node->nodal - evaluate(x);
  }
}

real_t AdaptiveSparseGrid::evaluate(const CoordVector& x) const {
  CSG_EXPECTS(x.size() == d_);
  // Iterative DFS from the root over in-grid points whose tensor support
  // contains x. A point is pushed at most once per dimension-step; a small
  // visited set removes the duplicates arising from different step orders.
  real_t result = 0;
  std::vector<GridPoint> stack;
  std::unordered_map<PointKey, bool, PointKeyHash> visited;
  GridPoint root{LevelVector(d_, 0), IndexVector(d_, 1)};
  stack.push_back(root);
  visited.emplace(make_key(root.level, root.index), true);
  while (!stack.empty()) {
    const GridPoint p = stack.back();
    stack.pop_back();
    const Node* node = find(p.level, p.index);
    CSG_ASSERT(node != nullptr);  // closure invariant
    real_t basis = 1;
    for (dim_t t = 0; t < d_ && basis != 0; ++t)
      basis *= hat_basis_1d(p.level[t], p.index[t], x[t]);
    result += node->surplus * basis;
    for (dim_t t = 0; t < d_; ++t) {
      // The child whose dimension-t support contains x_t. If x_t falls on
      // this point's grid line the hats of all descendants vanish there,
      // but descendants through OTHER dimensions may still contribute, so
      // descend unless the child index leaves the valid range.
      const index1d_t ci = support_index_1d(p.level[t] + 1, x[t]);
      if (ci != left_child_index_1d(p.index[t]) &&
          ci != right_child_index_1d(p.index[t]))
        continue;  // x_t outside this point's subtree in dimension t
      GridPoint child = p;
      child.level[t] = p.level[t] + 1;
      child.index[t] = ci;
      if (!contains(child.level, child.index)) continue;
      const PointKey key = make_key(child.level, child.index);
      if (visited.emplace(key, true).second) stack.push_back(child);
    }
  }
  return result;
}

std::vector<real_t> AdaptiveSparseGrid::evaluate_many(
    std::span<const CoordVector> pts) const {
  std::vector<real_t> out(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) out[p] = evaluate(pts[p]);
  return out;
}

std::size_t AdaptiveSparseGrid::refine_by_surplus(
    const std::function<real_t(const CoordVector&)>& f, real_t epsilon,
    std::size_t max_refine) {
  CSG_EXPECTS(epsilon >= 0);
  sample(f);
  hierarchize();
  std::vector<const Node*> candidates;
  for (const auto& [key, node] : nodes_)
    if (std::abs(node.surplus) > epsilon) candidates.push_back(&node);
  std::sort(candidates.begin(), candidates.end(),
            [](const Node* a, const Node* b) {
              return std::abs(a->surplus) > std::abs(b->surplus);
            });
  if (candidates.size() > max_refine) candidates.resize(max_refine);
  // Copy the points first: refinement mutates the node table.
  std::vector<GridPoint> to_refine;
  to_refine.reserve(candidates.size());
  for (const Node* node : candidates) to_refine.push_back(node->point);
  std::size_t added = 0;
  for (const GridPoint& gp : to_refine) added += refine_point(gp);
  if (added > 0) {
    sample(f);
    hierarchize();
  }
  return added;
}

std::size_t AdaptiveSparseGrid::adapt(
    const std::function<real_t(const CoordVector&)>& f, real_t epsilon,
    std::size_t max_points) {
  std::size_t rounds = 0;
  while (num_points() < max_points) {
    ++rounds;
    if (refine_by_surplus(f, epsilon) == 0) break;
  }
  return rounds;
}

void AdaptiveSparseGrid::set_node(const GridPoint& gp, real_t nodal,
                                  real_t surplus) {
  const auto it = nodes_.find(make_key(gp.level, gp.index));
  CSG_EXPECTS(it != nodes_.end());
  it->second.nodal = nodal;
  it->second.surplus = surplus;
}

std::size_t AdaptiveSparseGrid::memory_bytes() const {
  // Node payload + one pointer-sized hash link per node + bucket array.
  return nodes_.size() * (sizeof(Node) + sizeof(PointKey) + sizeof(void*)) +
         nodes_.bucket_count() * sizeof(void*);
}

level_t AdaptiveSparseGrid::max_level_sum() const {
  std::uint64_t best = 0;
  for (const auto& [key, node] : nodes_)
    best = std::max(best, node.point.level.l1_norm());
  return static_cast<level_t>(best);
}

}  // namespace csg::adaptive
