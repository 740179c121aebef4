#include "check/differential.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "algo/cost_greedy.h"
#include "algo/cost_partition.h"
#include "algo/exact.h"
#include "algo/move_min.h"
#include "algo/ptas.h"
#include "algo/two_proc_exact.h"
#include "algo/unit_exact.h"
#include "core/lower_bounds.h"
#include "lp/gap.h"
#include "solver/registry.h"

namespace lrb {
namespace {

void add_violation(AlgorithmFinding& finding, ViolationKind kind,
                   const std::string& detail) {
  finding.certificate.violations.push_back(Violation{kind, detail});
}

/// den * makespan <= num * reference + den * additive as a violation check
/// against a certified optimum (kRatioVsExact rather than kApproxBound).
void check_ratio_vs_opt(AlgorithmFinding& finding, std::int64_t num,
                        std::int64_t den, Size opt, Size additive = 0) {
  const auto ms = finding.result.makespan;
  if (den * ms > num * opt + den * additive) {
    std::ostringstream oss;
    oss << "makespan " << ms << " > (" << num << "/" << den
        << ") * OPT = " << num << "/" << den << " * " << opt;
    if (additive != 0) oss << " + " << additive;
    add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
  }
}

/// No feasible solution may beat a certified optimum for its constraints.
void check_not_below_opt(AlgorithmFinding& finding, Size opt,
                         const char* regime) {
  if (finding.result.makespan < opt) {
    std::ostringstream oss;
    oss << "makespan " << finding.result.makespan
        << " beats the certified optimum " << opt << " (" << regime << ")";
    add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
  }
}

}  // namespace

bool DifferentialReport::ok() const {
  for (const auto& finding : findings) {
    if (!finding.certificate.ok()) return false;
  }
  return true;
}

std::vector<std::pair<std::string, ViolationKind>>
DifferentialReport::signatures() const {
  std::vector<std::pair<std::string, ViolationKind>> out;
  for (const auto& finding : findings) {
    for (const auto& violation : finding.certificate.violations) {
      std::pair<std::string, ViolationKind> sig{finding.algorithm,
                                                violation.kind};
      bool seen = false;
      for (const auto& existing : out) seen = seen || existing == sig;
      if (!seen) out.push_back(std::move(sig));
    }
  }
  return out;
}

std::string DifferentialReport::to_string() const {
  std::ostringstream oss;
  bool first = true;
  for (const auto& finding : findings) {
    for (const auto& violation : finding.certificate.violations) {
      if (!first) oss << '\n';
      first = false;
      oss << finding.algorithm << ": [" << lrb::to_string(violation.kind)
          << "] " << violation.detail;
    }
  }
  return oss.str();
}

DifferentialReport differential_check(const Instance& instance,
                                      const DifferentialOptions& options) {
  DifferentialReport report;

  if (const auto problem = validate(instance)) {
    AlgorithmFinding finding;
    finding.algorithm = "instance";
    finding.certificate.violations.push_back(
        Violation{ViolationKind::kStructure, *problem});
    report.findings.push_back(std::move(finding));
    return report;
  }

  const auto n = static_cast<std::int64_t>(instance.num_jobs());
  const auto m = static_cast<std::int64_t>(instance.num_procs);
  const std::int64_t k = options.k;
  const bool small = instance.num_jobs() <= options.exact_max_jobs;

  // ---- the unit-cost registry roster, each against its a-priori contract.
  for (const solver::BackendDescriptor& backend : solver::all_backends()) {
    if (backend.costed) continue;
    AlgorithmFinding finding;
    finding.algorithm = backend.name;
    finding.backend = backend.id;
    finding.result = solver::solve_serial(backend.id, instance, k);
    finding.certificate = certify_solution(
        instance, finding.result,
        roster_certify_options(backend.id, instance, k, finding.result));
    report.findings.push_back(std::move(finding));
  }
  for (const auto& extra : options.extra) {
    AlgorithmFinding finding;
    finding.algorithm = extra.name;
    finding.result = extra.run(instance, k);
    CertifyOptions certify_options;
    if (extra.options) {
      certify_options = extra.options(instance, k, finding.result);
    } else {
      certify_options.max_moves = k;
    }
    finding.certificate =
        certify_solution(instance, finding.result, certify_options);
    report.findings.push_back(std::move(finding));
  }
  const std::size_t num_k_move_findings = report.findings.size();

  // ---- certified k-move optimum: branch-and-bound, or a known-OPT family.
  Size opt = 0;
  bool have_opt = false;
  if (small) {
    ExactOptions exact_options;
    exact_options.max_moves = k;
    exact_options.node_limit = options.exact_node_limit;
    const auto exact = exact_rebalance(instance, exact_options);
    if (exact.proven_optimal) {
      report.exact_available = true;
      report.exact_makespan = exact.best.makespan;
      opt = exact.best.makespan;
      have_opt = true;

      AlgorithmFinding finding;
      finding.algorithm = "exact";
      finding.result = exact.best;
      CertifyOptions certify_options;
      certify_options.max_moves = k;
      finding.certificate =
          certify_solution(instance, finding.result, certify_options);

      if (options.known_opt > 0 && options.known_opt != opt) {
        std::ostringstream oss;
        oss << "branch-and-bound optimum " << opt
            << " != the family's known optimum " << options.known_opt;
        add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
      }

      // Independent exact solvers must agree with the branch-and-bound.
      if (const auto fast = equal_size_exact_rebalance(instance, k)) {
        if (fast->makespan != opt) {
          std::ostringstream oss;
          oss << "equal-size exact got " << fast->makespan
              << " but branch-and-bound proved " << opt;
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
      }
      if (m == 2) {
        if (const auto dp = two_proc_exact_rebalance(instance, k)) {
          if (dp->makespan != opt) {
            std::ostringstream oss;
            oss << "two-processor DP got " << dp->makespan
                << " but branch-and-bound proved " << opt;
            add_violation(finding, ViolationKind::kExactDisagreement,
                          oss.str());
          }
        }
      }

      // Move minimization at the optimal makespan: a <= k-move solution at
      // makespan OPT(k) exists, so the minimum move count is <= k and no
      // smaller than its own certified lower bound.
      const auto move_min = minimize_moves_exact(
          instance, opt, /*minimize_cost=*/false, options.exact_node_limit);
      if (move_min.proven_optimal) {
        if (!move_min.feasible || move_min.best.moves > k) {
          std::ostringstream oss;
          oss << "minimize_moves_exact at L = " << opt << " reported "
              << (move_min.feasible
                      ? std::to_string(move_min.best.moves) + " moves"
                      : std::string("infeasible"))
              << " but a <= " << k << "-move solution exists";
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
        if (move_min.feasible &&
            move_min.best.moves < move_min_lower_bound(instance, opt)) {
          std::ostringstream oss;
          oss << "minimize_moves_exact found " << move_min.best.moves
              << " moves, below move_min_lower_bound "
              << move_min_lower_bound(instance, opt);
          add_violation(finding, ViolationKind::kExactDisagreement, oss.str());
        }
        if (const auto greedy_moves = move_min_greedy(instance, opt)) {
          if (move_min.feasible && greedy_moves->moves != move_min.best.moves) {
            std::ostringstream oss;
            oss << "move_min_greedy claims optimal " << greedy_moves->moves
                << " moves but minimize_moves_exact proved "
                << move_min.best.moves;
            add_violation(finding, ViolationKind::kExactDisagreement,
                          oss.str());
          }
        }
      }
      report.findings.push_back(std::move(finding));
    }
  }
  if (!have_opt && options.known_opt > 0) {
    opt = options.known_opt;
    have_opt = true;
  }

  // ---- proven ratios against the certified optimum.
  if (have_opt) {
    for (std::size_t i = 0; i < num_k_move_findings; ++i) {
      AlgorithmFinding& finding = report.findings[i];
      if (finding.backend && !solver::descriptor(*finding.backend).respects_k) {
        continue;  // unbounded moves: checked against the unbounded optimum
      }
      check_not_below_opt(finding, opt, "k-move problem");
      if (!finding.backend) continue;
      switch (*finding.backend) {
        case solver::BackendId::kGreedy:
          check_ratio_vs_opt(finding, 2 * m - 1, m, opt);
          break;
        case solver::BackendId::kBestOf:
          // Never worse than M-PARTITION, so Theorem 3's 3/2 applies; it is
          // strictly tighter than greedy's (2m - 1)/m for m >= 3.
          check_ratio_vs_opt(finding, 3, 2, opt);
          break;
        case solver::BackendId::kMPartition:
        case solver::BackendId::kLocalSearch:
          check_ratio_vs_opt(finding, 3, 2, opt);
          if (finding.result.threshold > opt) {
            std::ostringstream oss;
            oss << "accepted threshold " << finding.result.threshold
                << " exceeds OPT = " << opt;
            add_violation(finding, ViolationKind::kRatioVsExact, oss.str());
          }
          break;
        case solver::BackendId::kPtas:
        case solver::BackendId::kLpt:
          break;
      }
    }
    // Graham's LPT bound needs the UNBOUNDED optimum, which the k-move
    // optimum only upper-bounds from above; prove it separately.
    if (small) {
      ExactOptions unbounded;
      unbounded.max_moves = n;
      unbounded.node_limit = options.exact_node_limit;
      const auto exact_full = exact_rebalance(instance, unbounded);
      if (exact_full.proven_optimal) {
        for (std::size_t i = 0; i < num_k_move_findings; ++i) {
          AlgorithmFinding& finding = report.findings[i];
          if (finding.backend != solver::BackendId::kLpt) continue;
          check_not_below_opt(finding, exact_full.best.makespan,
                              "unbounded-move problem");
          check_ratio_vs_opt(finding, 4 * m - 1, 3 * m,
                             exact_full.best.makespan);
        }
      }
    }
  }

  // ---- the budgeted (arbitrary-cost) algorithms.
  if (options.run_cost_algorithms && options.budget != kInfCost) {
    const Cost budget = options.budget;
    CertifyOptions budget_certify;
    budget_certify.budget = budget;

    auto run_budget_algo = [&](std::string name, RebalanceResult result) {
      AlgorithmFinding finding;
      finding.algorithm = std::move(name);
      finding.result = std::move(result);
      finding.certificate =
          certify_solution(instance, finding.result, budget_certify);
      report.findings.push_back(std::move(finding));
      return report.findings.size() - 1;
    };

    {
      CertifyOptions greedy_certify = budget_certify;
      // cost-greedy only ever applies improving moves.
      greedy_certify.bound =
          RatioBound{1, 1, instance.initial_makespan(), 0, "initial makespan"};
      AlgorithmFinding finding;
      finding.algorithm = "cost-greedy";
      finding.result = cost_greedy_rebalance(instance, budget);
      finding.certificate =
          certify_solution(instance, finding.result, greedy_certify);
      report.findings.push_back(std::move(finding));
    }

    CostPartitionOptions cp;
    cp.budget = budget;
    const auto cp_index =
        run_budget_algo("cost-partition", cost_partition_rebalance(instance, cp));
    // The LP-based baseline and the PTAS are exponential-ish in practice on
    // large or huge-size instances; exercise them on the small tier only
    // (which is also where their ratio checks have an exact optimum).
    std::size_t st_index = 0;
    bool st_ran = false;
    std::size_t ptas_index = 0;
    bool ptas_ran = false;
    if (small) {
      st_index = run_budget_algo("shmoys-tardos", st_rebalance(instance, budget));
      st_ran = true;
      PtasOptions ptas_options;
      ptas_options.budget = budget;
      ptas_options.eps = options.ptas_eps;
      const auto ptas = ptas_rebalance(instance, ptas_options);
      if (ptas.success) {
        ptas_index = run_budget_algo("ptas", ptas.result);
        ptas_ran = true;
      }
    }

    if (small) {
      ExactOptions exact_options;
      exact_options.budget = budget;
      exact_options.node_limit = options.exact_node_limit;
      const auto exact_budget = exact_rebalance(instance, exact_options);
      if (exact_budget.proven_optimal) {
        const Size opt_budget = exact_budget.best.makespan;
        check_not_below_opt(report.findings[cp_index], opt_budget,
                            "budget problem");
        // 1.5 * (1 + eps) * (1 + alpha) at the defaults eps = 0.05,
        // alpha = 0.02: exactly 3213/2000.
        check_ratio_vs_opt(report.findings[cp_index], 3213, 2000, opt_budget);
        if (st_ran) {
          check_not_below_opt(report.findings[st_index], opt_budget,
                              "budget problem");
          check_ratio_vs_opt(report.findings[st_index], 2, 1, opt_budget);
        }
        if (ptas_ran) {
          check_not_below_opt(report.findings[ptas_index], opt_budget,
                              "budget problem");
          // (1 + eps) * OPT plus one unit of discretization slack (the DP
          // rounds small loads to multiples of u >= 1).
          const auto num = static_cast<std::int64_t>(
              std::llround((1.0 + options.ptas_eps) * 1000.0));
          check_ratio_vs_opt(report.findings[ptas_index], num, 1000,
                             opt_budget, 1);
        }
      }
    }
  }

  return report;
}

}  // namespace lrb
