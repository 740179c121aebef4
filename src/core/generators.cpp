#include "core/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>

namespace lrb {
namespace {

std::vector<Size> draw_sizes(const GeneratorOptions& opt, Rng& rng) {
  assert(opt.min_size >= 0 && opt.min_size <= opt.max_size);
  std::vector<Size> sizes(opt.num_jobs);
  switch (opt.size_dist) {
    case SizeDistribution::kUniform:
      for (auto& s : sizes) s = rng.uniform_int(opt.min_size, opt.max_size);
      break;
    case SizeDistribution::kBimodal:
      for (auto& s : sizes) {
        if (rng.bernoulli(opt.bimodal_large_fraction)) {
          s = rng.uniform_int(opt.max_size * 10, opt.max_size * 20);
        } else {
          s = rng.uniform_int(opt.min_size, opt.max_size);
        }
      }
      break;
    case SizeDistribution::kZipf: {
      // The sampler materializes one table entry per distinct value, so cap
      // the rank span: beyond ~10^6 distinct values the tail ranks carry
      // negligible mass and a full-range table would be gigabytes.
      const auto span = static_cast<std::size_t>(
          std::min<Size>(opt.max_size - opt.min_size + 1, Size{1} << 20));
      const ZipfSampler sampler(span, opt.zipf_alpha);
      // Rank 0 (most likely) maps to the largest size: a few huge sites and
      // a long tail of small ones, inverted so hot items are big.
      for (auto& s : sizes) {
        s = opt.max_size - static_cast<Size>(sampler(rng));
      }
      break;
    }
    case SizeDistribution::kExponential: {
      const double mean =
          0.5 * static_cast<double>(opt.min_size + opt.max_size);
      for (auto& s : sizes) {
        const double v = rng.exponential(1.0 / std::max(1.0, mean));
        s = std::clamp(static_cast<Size>(std::llround(v)), opt.min_size,
                       opt.max_size * 10);
      }
      break;
    }
    case SizeDistribution::kUnit:
      std::fill(sizes.begin(), sizes.end(), Size{1});
      break;
  }
  return sizes;
}

std::vector<ProcId> draw_placement(const GeneratorOptions& opt,
                                   const std::vector<Size>& sizes, Rng& rng) {
  const ProcId m = opt.num_procs;
  std::vector<ProcId> initial(sizes.size(), 0);
  switch (opt.placement) {
    case PlacementPolicy::kRandom:
      for (auto& p : initial) {
        p = static_cast<ProcId>(rng.uniform_int(0, static_cast<Size>(m) - 1));
      }
      break;
    case PlacementPolicy::kHotspot: {
      const ProcId hot = std::max<ProcId>(
          1, static_cast<ProcId>(std::llround(opt.hotspot_fraction * m)));
      for (auto& p : initial) {
        if (rng.bernoulli(opt.hotspot_mass)) {
          p = static_cast<ProcId>(rng.uniform_int(0, static_cast<Size>(hot) - 1));
        } else {
          p = static_cast<ProcId>(rng.uniform_int(0, static_cast<Size>(m) - 1));
        }
      }
      break;
    }
    case PlacementPolicy::kZipfProcs: {
      const ZipfSampler sampler(m, opt.zipf_alpha);
      for (auto& p : initial) p = static_cast<ProcId>(sampler(rng));
      break;
    }
    case PlacementPolicy::kBalanced: {
      // LPT: biggest jobs first onto the least-loaded processor.
      std::vector<std::size_t> order(sizes.size());
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return sizes[a] > sizes[b];
      });
      std::vector<Size> load(m, 0);
      for (std::size_t j : order) {
        const auto argmin = static_cast<ProcId>(
            std::min_element(load.begin(), load.end()) - load.begin());
        initial[j] = argmin;
        load[argmin] += sizes[j];
      }
      break;
    }
    case PlacementPolicy::kSingleProc:
      std::fill(initial.begin(), initial.end(), ProcId{0});
      break;
  }
  return initial;
}

std::vector<Cost> draw_costs(const GeneratorOptions& opt,
                             const std::vector<Size>& sizes, Rng& rng) {
  std::vector<Cost> costs(sizes.size(), 1);
  switch (opt.cost_model) {
    case CostModel::kUnit:
      break;
    case CostModel::kUniform:
      for (auto& c : costs) c = rng.uniform_int(opt.min_cost, opt.max_cost);
      break;
    case CostModel::kProportional:
      for (std::size_t j = 0; j < costs.size(); ++j) {
        costs[j] = std::max<Cost>(1, sizes[j]);
      }
      break;
    case CostModel::kInverse: {
      const Size max_size =
          sizes.empty() ? 1 : *std::max_element(sizes.begin(), sizes.end());
      for (std::size_t j = 0; j < costs.size(); ++j) {
        costs[j] = max_size - sizes[j] + 1;
      }
      break;
    }
    case CostModel::kTwoValued:
      for (auto& c : costs) {
        c = rng.bernoulli(opt.two_value_p_fraction) ? opt.two_value_p
                                                    : opt.two_value_q;
      }
      break;
  }
  return costs;
}

}  // namespace

Instance random_instance(const GeneratorOptions& options, std::uint64_t seed) {
  assert(options.num_procs >= 1);
  Rng rng(seed);
  Instance inst;
  inst.num_procs = options.num_procs;
  inst.sizes = draw_sizes(options, rng);
  inst.initial = draw_placement(options, inst.sizes, rng);
  inst.move_costs = draw_costs(options, inst.sizes, rng);
  assert(!validate(inst));
  return inst;
}

KnownOptInstance greedy_tight_instance(ProcId m) {
  assert(m >= 2);
  const auto m64 = static_cast<Size>(m);
  std::vector<Size> sizes;
  std::vector<ProcId> initial;
  sizes.push_back(m64);  // the big job, on processor 0
  initial.push_back(0);
  for (ProcId p = 0; p < m; ++p) {
    for (Size i = 0; i < m64 - 1; ++i) {  // m - 1 unit jobs everywhere
      sizes.push_back(1);
      initial.push_back(p);
    }
  }
  KnownOptInstance result;
  result.instance = make_instance(std::move(sizes), std::move(initial), m);
  result.k = m64 - 1;
  // Moving the m - 1 unit jobs off processor 0 (one to each other processor)
  // leaves every load exactly m.
  result.opt = m64;
  return result;
}

KnownOptInstance partition_tight_instance() {
  // Paper's example scaled by 2 to stay integral: processor 0 holds {1, 2},
  // processor 1 holds {1}; k = 1. Moving the size-1 job off processor 0
  // yields loads {2, 2}, so OPT = 2. PARTITION at threshold 2 computes
  // L_T = 1, L_E = 0, a = (0, 0), b = (1, 0), c = (-1, 0), selects processor
  // 0, removes nothing, and returns the initial makespan 3 - ratio 1.5.
  KnownOptInstance result;
  result.instance =
      make_instance({Size{1}, Size{2}, Size{1}}, {0, 0, 1}, ProcId{2});
  result.k = 1;
  result.opt = 2;
  return result;
}

Instance unit_instance(const std::vector<std::int64_t>& counts_per_proc) {
  assert(!counts_per_proc.empty());
  std::vector<Size> sizes;
  std::vector<ProcId> initial;
  for (std::size_t p = 0; p < counts_per_proc.size(); ++p) {
    assert(counts_per_proc[p] >= 0);
    for (std::int64_t i = 0; i < counts_per_proc[p]; ++i) {
      sizes.push_back(1);
      initial.push_back(static_cast<ProcId>(p));
    }
  }
  return make_instance(std::move(sizes), std::move(initial),
                       static_cast<ProcId>(counts_per_proc.size()));
}

Instance mixed_corpus_instance(std::size_t index, std::uint64_t seed) {
  static constexpr SizeDistribution kDists[] = {
      SizeDistribution::kUniform, SizeDistribution::kBimodal,
      SizeDistribution::kZipf, SizeDistribution::kExponential,
      SizeDistribution::kUnit};
  static constexpr PlacementPolicy kPlacements[] = {
      PlacementPolicy::kRandom, PlacementPolicy::kHotspot,
      PlacementPolicy::kZipfProcs, PlacementPolicy::kBalanced,
      PlacementPolicy::kSingleProc};
  static constexpr std::size_t kJobs[] = {32, 128, 512};
  static constexpr ProcId kProcs[] = {4, 8, 16};

  GeneratorOptions options;
  options.size_dist = kDists[index % std::size(kDists)];
  options.placement =
      kPlacements[(index / std::size(kDists)) % std::size(kPlacements)];
  const std::size_t tier =
      (index / (std::size(kDists) * std::size(kPlacements))) % std::size(kJobs);
  options.num_jobs = kJobs[tier];
  options.num_procs = kProcs[tier];
  return random_instance(options, seed + index);
}

Instance relabeled_instance(const Instance& in, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobId> job_perm(in.num_jobs());
  std::vector<ProcId> proc_perm(in.num_procs);
  std::iota(job_perm.begin(), job_perm.end(), JobId{0});
  std::iota(proc_perm.begin(), proc_perm.end(), ProcId{0});
  shuffle(std::span<JobId>(job_perm), rng);
  shuffle(std::span<ProcId>(proc_perm), rng);
  Instance out;
  out.num_procs = in.num_procs;
  out.sizes.resize(in.num_jobs());
  out.move_costs.resize(in.num_jobs());
  out.initial.resize(in.num_jobs());
  for (std::size_t j = 0; j < in.num_jobs(); ++j) {
    out.sizes[job_perm[j]] = in.sizes[j];
    out.move_costs[job_perm[j]] = in.move_costs[j];
    out.initial[job_perm[j]] = proc_perm[in.initial[j]];
  }
  return out;
}

}  // namespace lrb
