#include "phylo/likelihood.hpp"

#include "phylo/kernels_simd.hpp"

#include <stdexcept>

namespace cbe::phylo {

LikelihoodEngine::LikelihoodEngine(const PatternAlignment& alignment,
                                   const SubstModel& model,
                                   KernelObserver* observer)
    : alignment_(&alignment), model_(&model), observer_(observer) {
  tips_.resize(static_cast<std::size_t>(alignment.taxa()));
  for (int t = 0; t < alignment.taxa(); ++t) {
    init_tip_clv(alignment, t, tips_[static_cast<std::size_t>(t)]);
  }
}

void LikelihoodEngine::attach(const Tree& tree) {
  tree_ = &tree;
  last_revision_ = tree.revision();
  dir_.assign(static_cast<std::size_t>(tree.edge_count()) * 2, DirClv{});
}

void LikelihoodEngine::sync(const Tree& tree) {
  if (tree_ != &tree || last_revision_ != tree.revision()) attach(tree);
}

std::size_t LikelihoodEngine::dir_index(int edge, int node) const {
  const auto [a, b] = tree_->edge_nodes(edge);
  if (node == a) return static_cast<std::size_t>(edge) * 2;
  if (node == b) return static_cast<std::size_t>(edge) * 2 + 1;
  throw std::invalid_argument("dir_index: node not on edge");
}

void LikelihoodEngine::notify(task::KernelClass kind, int iters) {
  ++kernel_calls_;
  if (observer_ != nullptr) {
    observer_->on_kernel(kind, alignment_->patterns(), iters);
  }
}

BranchP LikelihoodEngine::branch_p(int edge) const {
  return BranchP::at(*model_, tree_->branch_length(edge));
}

const Clv<double>& LikelihoodEngine::compute_dir(int edge, int node) {
  if (tree_->leaf(node)) return tips_[static_cast<std::size_t>(node)];
  // Grow the cache if the tree gained edges since attach (leaf insertion).
  if (dir_.size() < static_cast<std::size_t>(tree_->edge_count()) * 2) {
    dir_.resize(static_cast<std::size_t>(tree_->edge_count()) * 2);
  }
  DirClv& slot = dir_[dir_index(edge, node)];
  if (slot.valid) return slot.clv;

  // Combine the two other neighbors' subtrees.
  int n1 = -1, e1 = -1, n2 = -1, e2 = -1;
  for (const auto& nb : tree_->neighbors(node)) {
    if (nb.edge == edge) continue;
    if (n1 < 0) {
      n1 = nb.node;
      e1 = nb.edge;
    } else {
      n2 = nb.node;
      e2 = nb.edge;
    }
  }
  if (n2 < 0) throw std::logic_error("compute_dir: internal node degree < 3");
  const Clv<double>& c1 = compute_dir(e1, n1);
  const Clv<double>& c2 = compute_dir(e2, n2);
  newview_dispatch(c1, branch_p(e1), c2, branch_p(e2), slot.clv);
  notify(task::KernelClass::Newview);
  slot.valid = true;
  return slot.clv;
}

double LikelihoodEngine::loglik(int edge) {
  if (tree_ == nullptr) throw std::logic_error("engine: no tree attached");
  sync(*tree_);
  if (edge < 0) edge = 0;
  const auto [a, b] = tree_->edge_nodes(edge);
  const Clv<double>& ca = compute_dir(edge, a);
  const Clv<double>& cb = compute_dir(edge, b);
  const double lnl = evaluate_dispatch(ca, cb, branch_p(edge), *model_,
                                       alignment_->weights());
  notify(task::KernelClass::Evaluate);
  return lnl;
}

double LikelihoodEngine::optimize_branch(Tree& tree, int edge) {
  sync(tree);
  const auto [a, b] = tree.edge_nodes(edge);
  const Clv<double>& ca = compute_dir(edge, a);
  const Clv<double>& cb = compute_dir(edge, b);

  std::vector<double> sumtable;
  make_sumtable_dispatch(ca, cb, *model_, sumtable);
  std::vector<int> scale_sum(static_cast<std::size_t>(ca.patterns()));
  for (int p = 0; p < ca.patterns(); ++p) {
    scale_sum[static_cast<std::size_t>(p)] =
        ca.scale[static_cast<std::size_t>(p)] +
        cb.scale[static_cast<std::size_t>(p)];
  }
  int iters = 0;
  const double t =
      newton_branch_length(sumtable, scale_sum, *model_,
                           alignment_->weights(), tree.branch_length(edge),
                           32, &iters);
  notify(task::KernelClass::Makenewz, iters);
  tree.set_branch_length(edge, t);
  last_revision_ = tree.revision();

  // A changed branch length invalidates every directed CLV whose subtree
  // spans the edge — conservatively, all but this edge's own two.
  const std::size_t keep_a = dir_index(edge, a);
  const std::size_t keep_b = dir_index(edge, b);
  for (std::size_t i = 0; i < dir_.size(); ++i) {
    if (i != keep_a && i != keep_b) dir_[i].valid = false;
  }
  return sumtable_loglik(sumtable, scale_sum, *model_,
                         alignment_->weights(), t);
}

double LikelihoodEngine::optimize_all_branches(Tree& tree, int rounds) {
  sync(tree);
  double lnl = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (int e : tree.all_edges()) lnl = optimize_branch(tree, e);
  }
  return lnl;
}

double LikelihoodEngine::insertion_score(int leaf, int edge,
                                         double leaf_length) {
  sync(*tree_);
  const auto [a, b] = tree_->edge_nodes(edge);
  const Clv<double>& ca = compute_dir(edge, a);
  const Clv<double>& cb = compute_dir(edge, b);
  const double half = tree_->branch_length(edge) * 0.5;
  const BranchP ph = BranchP::at(*model_, half);

  Clv<double> cx;
  newview_dispatch(ca, ph, cb, ph, cx);
  notify(task::KernelClass::Newview);
  const double lnl = evaluate_dispatch(
      cx, tips_[static_cast<std::size_t>(leaf)],
      BranchP::at(*model_, leaf_length), *model_, alignment_->weights());
  notify(task::KernelClass::Evaluate);
  return lnl;
}

double LikelihoodEngine::nni_score(int edge, int variant) {
  sync(*tree_);
  const auto [u, v] = tree_->edge_nodes(edge);
  if (tree_->leaf(u) || tree_->leaf(v)) {
    throw std::invalid_argument("nni_score: edge must be internal");
  }
  // Mirror Tree::nni's selection: b is u's first non-edge neighbor; c is
  // v's variant-th non-edge neighbor; a and d are the remaining two.
  int b_node = -1, b_edge = -1, a_node = -1, a_edge = -1;
  for (const auto& nb : tree_->neighbors(u)) {
    if (nb.edge == edge) continue;
    if (b_node < 0) {
      b_node = nb.node;
      b_edge = nb.edge;
    } else {
      a_node = nb.node;
      a_edge = nb.edge;
    }
  }
  int c_node = -1, c_edge = -1, d_node = -1, d_edge = -1;
  int seen = 0;
  for (const auto& nb : tree_->neighbors(v)) {
    if (nb.edge == edge) continue;
    if (seen == (variant & 1)) {
      c_node = nb.node;
      c_edge = nb.edge;
    } else {
      d_node = nb.node;
      d_edge = nb.edge;
    }
    ++seen;
  }

  // After the swap, u holds {a, c} and v holds {b, d}.
  const Clv<double>& ca = compute_dir(a_edge, a_node);
  const Clv<double>& cb = compute_dir(b_edge, b_node);
  const Clv<double>& cc = compute_dir(c_edge, c_node);
  const Clv<double>& cd = compute_dir(d_edge, d_node);

  Clv<double> cu, cv;
  newview_dispatch(ca, branch_p(a_edge), cc, branch_p(c_edge), cu);
  notify(task::KernelClass::Newview);
  newview_dispatch(cb, branch_p(b_edge), cd, branch_p(d_edge), cv);
  notify(task::KernelClass::Newview);
  const double lnl = evaluate_dispatch(cu, cv, branch_p(edge), *model_,
                                       alignment_->weights());
  notify(task::KernelClass::Evaluate);
  return lnl;
}

}  // namespace cbe::phylo
