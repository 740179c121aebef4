// lrb_gen: generate load-rebalancing instances in the lrb text format.
//
//   lrb_gen --jobs 200 --procs 16 --dist zipf --placement hotspot
//           --cost-model proportional --seed 7 > instance.lrb
//
// Flags (defaults in parentheses):
//   --jobs N (100)         --procs M (10)
//   --dist uniform|bimodal|zipf|exponential|unit (uniform)
//   --min-size S (1)       --max-size S (100)      --zipf-alpha A (1.2)
//   --placement random|hotspot|zipf|balanced|single (random)
//   --hotspot-fraction F (0.2)  --hotspot-mass F (0.7)
//   --cost-model unit|uniform|proportional|inverse|two-valued (unit)
//   --min-cost C (1)  --max-cost C (10)  --p C (1)  --q C (10)
//   --seed S (1)
//   --tight-greedy M       emit Theorem 1's tight family instead
//   --tight-partition      emit Theorem 2's tight example instead
//
// Exit status is 2 for an out-of-range flag value (--jobs in [1, 10^8];
// --procs in [1, 10^6]; sizes, costs, --p and --q in [0, 2^32]; --seed
// >= 0; --tight-greedy in [2, 10^4]), checked before anything is
// generated, and 1 for any other bad flag.

#include <algorithm>
#include <iostream>
#include <limits>
#include <string>

#include "core/generators.h"
#include "core/io.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_gen: " << message << "\n";
  return 1;
}

/// A flag value out of range: exit 2, before anything is generated.
int bad_flag(const std::string& message) {
  std::cerr << "lrb_gen: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_gen");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {
        "jobs",        "procs",      "dist",       "min-size",
        "max-size",    "zipf-alpha", "placement",  "hotspot-fraction",
        "hotspot-mass", "cost-model", "min-cost",  "max-cost",
        "p",           "q",          "seed",       "tight-greedy",
        "tight-partition", "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  // Validate ranges BEFORE casting: "--jobs -5" through static_cast<size_t>
  // would wrap to ~2^64 and hang the generator instead of diagnosing. The
  // 2^32 cap on sizes and costs keeps 10^8 of them summable in 64 bits.
  std::string flag_error;
  constexpr std::int64_t kMaxValue = std::int64_t{1} << 32;
  const auto m = static_cast<ProcId>(
      flags.get_int_in("tight-greedy", 4, 2, 10'000, &flag_error));
  GeneratorOptions options;
  options.num_jobs = static_cast<std::size_t>(
      flags.get_int_in("jobs", 100, 1, 100'000'000, &flag_error));
  options.num_procs = static_cast<ProcId>(
      flags.get_int_in("procs", 10, 1, 1'000'000, &flag_error));
  options.min_size = flags.get_int_in("min-size", 1, 0, kMaxValue, &flag_error);
  options.max_size =
      flags.get_int_in("max-size", 100, 0, kMaxValue, &flag_error);
  options.min_cost = flags.get_int_in("min-cost", 1, 0, kMaxValue, &flag_error);
  options.max_cost =
      flags.get_int_in("max-cost", 10, 0, kMaxValue, &flag_error);
  options.two_value_p = flags.get_int_in("p", 1, 0, kMaxValue, &flag_error);
  options.two_value_q = flags.get_int_in("q", 10, 0, kMaxValue, &flag_error);
  const auto seed = static_cast<std::uint64_t>(flags.get_int_in(
      "seed", 1, 0, std::numeric_limits<std::int64_t>::max(), &flag_error));
  if (!flag_error.empty()) return bad_flag(flag_error);

  if (flags.has("tight-greedy")) {
    const auto family = greedy_tight_instance(m);
    std::cout << "# Theorem 1 tight family: k = " << family.k
              << ", OPT = " << family.opt << "\n";
    write_instance(std::cout, family.instance);
    return 0;
  }
  if (flags.has("tight-partition")) {
    const auto family = partition_tight_instance();
    std::cout << "# Theorem 2 tight example: k = " << family.k
              << ", OPT = " << family.opt << "\n";
    write_instance(std::cout, family.instance);
    return 0;
  }

  if (options.min_size > options.max_size) {
    return fail("need --min-size <= --max-size");
  }
  options.zipf_alpha = flags.get_double("zipf-alpha", 1.2);
  options.hotspot_fraction = flags.get_double("hotspot-fraction", 0.2);
  options.hotspot_mass = flags.get_double("hotspot-mass", 0.7);

  const std::string dist = flags.get_or("dist", "uniform");
  if (dist == "uniform") {
    options.size_dist = SizeDistribution::kUniform;
  } else if (dist == "bimodal") {
    options.size_dist = SizeDistribution::kBimodal;
  } else if (dist == "zipf") {
    options.size_dist = SizeDistribution::kZipf;
  } else if (dist == "exponential") {
    options.size_dist = SizeDistribution::kExponential;
  } else if (dist == "unit") {
    options.size_dist = SizeDistribution::kUnit;
  } else {
    return fail("unknown --dist '" + dist + "'");
  }

  const std::string placement = flags.get_or("placement", "random");
  if (placement == "random") {
    options.placement = PlacementPolicy::kRandom;
  } else if (placement == "hotspot") {
    options.placement = PlacementPolicy::kHotspot;
  } else if (placement == "zipf") {
    options.placement = PlacementPolicy::kZipfProcs;
  } else if (placement == "balanced") {
    options.placement = PlacementPolicy::kBalanced;
  } else if (placement == "single") {
    options.placement = PlacementPolicy::kSingleProc;
  } else {
    return fail("unknown --placement '" + placement + "'");
  }

  const std::string cost_model = flags.get_or("cost-model", "unit");
  if (cost_model == "unit") {
    options.cost_model = CostModel::kUnit;
  } else if (cost_model == "uniform") {
    options.cost_model = CostModel::kUniform;
  } else if (cost_model == "proportional") {
    options.cost_model = CostModel::kProportional;
  } else if (cost_model == "inverse") {
    options.cost_model = CostModel::kInverse;
  } else if (cost_model == "two-valued") {
    options.cost_model = CostModel::kTwoValued;
  } else {
    return fail("unknown --cost-model '" + cost_model + "'");
  }

  if (options.min_cost > options.max_cost) {
    return fail("need --min-cost <= --max-cost");
  }
  const auto instance = random_instance(options, seed);
  std::cout << "# generated by lrb_gen: jobs=" << options.num_jobs
            << " procs=" << options.num_procs << " dist=" << dist
            << " placement=" << placement << " cost-model=" << cost_model
            << " seed=" << seed << "\n";
  write_instance(std::cout, instance);
  return 0;
}
