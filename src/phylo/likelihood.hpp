// The likelihood engine: binds an alignment + model to a tree and provides
// log-likelihood evaluation and Newton branch-length optimization on top of
// a directed-edge CLV cache (each directed edge u->v caches the conditional
// likelihood of the subtree on u's side).  Every kernel invocation can be
// observed — the trace generator uses this to convert a real phylogenetic
// analysis into the off-load task stream the Cell schedulers consume.
#pragma once

#include <functional>
#include <vector>

#include "phylo/kernels.hpp"
#include "phylo/tree.hpp"
#include "task/task.hpp"

namespace cbe::phylo {

/// Observer of kernel-level work.  `newton_iters` is nonzero only for
/// makenewz.  Implemented by the trace generator (src/phylo/tracegen).
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  virtual void on_kernel(task::KernelClass kind, int patterns,
                         int newton_iters) = 0;
};

class LikelihoodEngine {
 public:
  LikelihoodEngine(const PatternAlignment& alignment, const SubstModel& model,
                   KernelObserver* observer = nullptr);

  const PatternAlignment& alignment() const noexcept { return *alignment_; }
  const SubstModel& model() const noexcept { return *model_; }

  /// Binds a (possibly re-arranged) tree: invalidates all cached CLVs.
  void attach(const Tree& tree);

  /// Log-likelihood evaluated across `edge` (any edge gives the same value
  /// up to roundoff); -1 picks edge 0.  Lazily computes needed CLVs.
  double loglik(int edge = -1);

  /// Newton-optimizes the branch length of `edge` (makenewz); updates the
  /// tree and invalidates dependent CLVs.  Returns the new log-likelihood.
  double optimize_branch(Tree& tree, int edge);

  /// Sweeps all branches `rounds` times; returns the final log-likelihood.
  double optimize_all_branches(Tree& tree, int rounds = 2);

  /// Score of inserting `leaf` into `edge` without mutating the tree:
  /// builds the would-be root CLV locally (one newview + one evaluate).
  double insertion_score(int leaf, int edge, double leaf_length = 0.1);

  /// Score of the NNI variant around `edge` without mutating the tree.
  double nni_score(int edge, int variant);

  std::uint64_t kernel_calls() const noexcept { return kernel_calls_; }

 private:
  struct DirClv {
    Clv<double> clv;
    bool valid = false;
  };

  void sync(const Tree& tree);
  std::size_t dir_index(int edge, int node) const;
  const Clv<double>& compute_dir(int edge, int node);
  void notify(task::KernelClass kind, int iters = 0);
  BranchP branch_p(int edge) const;

  const PatternAlignment* alignment_;
  const SubstModel* model_;
  KernelObserver* observer_;
  const Tree* tree_ = nullptr;
  std::vector<Clv<double>> tips_;
  std::vector<DirClv> dir_;
  std::uint64_t last_revision_ = 0;
  std::uint64_t kernel_calls_ = 0;
};

}  // namespace cbe::phylo
