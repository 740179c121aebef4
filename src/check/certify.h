// Machine-checkable correctness certificates for rebalancing solutions.
//
// Every algorithm in this library carries a provable guarantee (GREEDY is
// (2 - 1/m)-approximate, M-PARTITION 1.5, the PTAS 1 + eps at cost <= B);
// this module turns those theorems into an oracle: given an Instance and a
// RebalanceResult, certify_solution recomputes every reported quantity from
// scratch, checks the budgets, checks the solution against the certified
// lower bounds of core/lower_bounds, and checks an optional a-priori
// approximation bound - all in exact integer arithmetic - returning a
// structured violation report instead of a bare bool. The fuzz driver
// (tools/lrb_fuzz) and the differential harness (check/differential) are
// built on top of it; docs/testing.md describes the contract.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "solver/spec.h"

namespace lrb {

enum class ViolationKind {
  kStructure,          ///< instance or assignment fails structural validation
  kMakespanMismatch,   ///< reported makespan != recomputed from scratch
  kMovesMismatch,      ///< reported move count != recomputed
  kCostMismatch,       ///< reported relocation cost != recomputed
  kMoveBudget,         ///< recomputed moves exceed the declared k
  kCostBudget,         ///< recomputed cost exceeds the declared budget B
  kBelowLowerBound,    ///< makespan beats a certified lower bound on OPT
  kApproxBound,        ///< an a-priori approximation guarantee is violated
  kRatioVsExact,       ///< proven ratio violated against a certified optimum
  kExactDisagreement,  ///< two exact solvers disagree with each other
};

[[nodiscard]] const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kStructure;
  std::string detail;  ///< human-readable, includes the exact quantities
};

/// An exact rational a-priori guarantee:
///   den * makespan <= num * reference + den * additive.
/// All quantities are integers; e.g. GREEDY's (2 - 1/m) bound against the
/// combined lower bound is {num = 2m - 1, den = m, reference = lb}.
struct RatioBound {
  std::int64_t num = 1;
  std::int64_t den = 1;
  Size reference = 0;
  Size additive = 0;
  std::string reference_name;  ///< names the reference in violation reports
};

struct CertifyOptions {
  std::int64_t max_moves = kInfSize;  ///< the paper's k; kInfSize = unbounded
  Cost budget = kInfCost;             ///< the paper's B; kInfCost = unbounded
  /// Check makespan >= combined_lower_bound(k) (and, with a finite budget,
  /// >= budget_removal_bound(B)). A solution beating a certified lower bound
  /// means the lower bound - or the solution's accounting - is broken.
  bool check_lower_bound = true;
  std::optional<RatioBound> bound;  ///< a-priori approximation guarantee
};

struct SolutionCertificate {
  std::vector<Violation> violations;
  Size recomputed_makespan = 0;
  std::int64_t recomputed_moves = 0;
  Cost recomputed_cost = 0;
  Size lower_bound = 0;  ///< strongest certified lower bound applied (0 if none)

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// One line per violation; empty string when ok().
  [[nodiscard]] std::string to_string() const;
};

/// Verifies `result` against `instance` under `options`. Never trusts a
/// reported quantity: loads, makespan, moves and cost are recomputed from
/// the assignment. All comparisons are exact (64-bit with overflow guards).
[[nodiscard]] SolutionCertificate certify_solution(
    const Instance& instance, const RebalanceResult& result,
    const CertifyOptions& options = {});

/// The a-priori certificate each registry backend must satisfy on EVERY
/// instance (no exact optimum needed):
///   greedy        moves <= k, m * makespan <= (2m - 1) * combined_lb(k)
///   m-partition   moves <= k, 2 * makespan <= 3 * accepted threshold
///   local-search  same as m-partition (local search only improves)
///   best-of       moves <= k, greedy's bound (it returns the better of the
///                 two, so it is no worse than greedy)
///   lpt           moves unbounded, m * makespan <= (2m - 1) * combined_lb(n)
///   ptas          moves unbounded, universal checks only (budgets + lower
///                 bound); its ratio needs the exact budget optimum
[[nodiscard]] CertifyOptions roster_certify_options(
    solver::BackendId backend, const Instance& instance, std::int64_t k,
    const RebalanceResult& result);

}  // namespace lrb
