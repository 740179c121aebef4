// Synthetic instance generators: random workload families used by the
// experiment suite, plus the paper's adversarial tightness families
// (Theorem 1's GREEDY-tight instance and Theorem 2's PARTITION-tight
// instance).
//
// All generators are deterministic in (options, seed).

#pragma once

#include <cstdint>

#include "core/instance.h"
#include "util/rng.h"

namespace lrb {

enum class SizeDistribution {
  kUniform,      ///< uniform integer in [min_size, max_size]
  kBimodal,      ///< small uniform in [min_size, max_size], large = 10x range
  kZipf,         ///< power-law over [min_size, max_size] with zipf_alpha
  kExponential,  ///< geometric-ish with mean (min_size + max_size)/2, clamped
  kUnit,         ///< all jobs size 1 (the Rudolph et al. model in the intro)
};

enum class PlacementPolicy {
  kRandom,      ///< independently uniform processor per job
  kHotspot,     ///< hotspot_mass of jobs land on hotspot_fraction of procs
  kZipfProcs,   ///< processor popularity is Zipf(zipf_alpha)
  kBalanced,    ///< LPT-style near-balanced start (little rebalancing needed)
  kSingleProc,  ///< everything piled on processor 0 (worst case)
};

enum class CostModel {
  kUnit,          ///< all move costs 1 (the k-move problem)
  kUniform,       ///< uniform integer in [min_cost, max_cost]
  kProportional,  ///< cost == size (bytes-moved model for website migration)
  kInverse,       ///< cost = max size - size + 1 (small jobs expensive)
  kTwoValued,     ///< cost in {two_value_p, two_value_q} (Theorem 6 regime)
};

struct GeneratorOptions {
  std::size_t num_jobs = 100;
  ProcId num_procs = 10;

  SizeDistribution size_dist = SizeDistribution::kUniform;
  Size min_size = 1;
  Size max_size = 100;
  double zipf_alpha = 1.2;
  double bimodal_large_fraction = 0.1;

  PlacementPolicy placement = PlacementPolicy::kRandom;
  double hotspot_fraction = 0.2;
  double hotspot_mass = 0.7;

  CostModel cost_model = CostModel::kUnit;
  Cost min_cost = 1;
  Cost max_cost = 10;
  Cost two_value_p = 1;
  Cost two_value_q = 10;
  double two_value_p_fraction = 0.5;
};

/// Generates a random instance according to `options`. Deterministic in
/// (options, seed).
[[nodiscard]] Instance random_instance(const GeneratorOptions& options,
                                       std::uint64_t seed);

/// A known-OPT adversarial instance together with its parameters.
struct KnownOptInstance {
  Instance instance;
  std::int64_t k = 0;  ///< move budget the family is defined for
  Size opt = 0;        ///< optimal makespan under that budget
};

/// Theorem 1's tight family for GREEDY: one job of size m plus m^2 - m unit
/// jobs; processor 0 holds the big job and m - 1 units, every other processor
/// holds m - 1 units... with k = m - 1 moves OPT = m while GREEDY can return
/// 2m - 1 (ratio -> 2 - 1/m). Requires m >= 2.
[[nodiscard]] KnownOptInstance greedy_tight_instance(ProcId m);

/// Theorem 2's tight family for PARTITION (integer-scaled by 2): two
/// processors, jobs {1, 2} on processor 0 and {1} on processor 1, k = 1.
/// OPT = 2 but PARTITION makes no moves and returns 3 (ratio 1.5).
[[nodiscard]] KnownOptInstance partition_tight_instance();

/// Builds a unit-size-job instance with the given per-processor job counts
/// (the equal-size model of Rudolph et al. / Ghosh et al. from the intro).
[[nodiscard]] Instance unit_instance(const std::vector<std::int64_t>& counts_per_proc);

/// A random job/processor relabeling of `in` (deterministic in `seed`):
/// the same problem under different labels, which every reply path must
/// answer with the same plan, relabeled.
[[nodiscard]] Instance relabeled_instance(const Instance& in,
                                          std::uint64_t seed);

/// The mixed benchmark corpus shared by lrb_batch and lrb_load: every size
/// distribution crossed with every placement policy, cycled over three
/// (jobs, procs) tiers. Deterministic in (index, seed), so a load
/// generator and a checker can regenerate instance `index` independently.
[[nodiscard]] Instance mixed_corpus_instance(std::size_t index,
                                             std::uint64_t seed);

}  // namespace lrb
