// The solver backend registry: one descriptor per registered backend
// (canonical name + aliases, stable wire id, parameter validation,
// cache-key parameter encoding, serial-reference entry point, capability
// flags) and the ONE dispatch switch in the codebase (registry.cpp's
// solve()). Every layer — engine, cache, wire codecs, streaming triggers,
// chaos, tools — resolves backends and dispatches solves through this seam
// instead of switching on an enum locally. docs/solvers.md describes the
// design, the wire-id stability policy, and how to add a backend.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "solver/spec.h"

namespace lrb {
class ThreadPool;
struct MPartitionScratch;
struct PtasScratch;
}  // namespace lrb

namespace lrb::solver {

/// Everything a layer needs to know about a backend without naming it in a
/// switch. One static table entry per BackendId (registry.cpp); lookups by
/// id, name/alias, or wire id all land on the same descriptor.
struct BackendDescriptor {
  BackendId id = BackendId::kBestOf;
  /// Stable on-wire / cache-key discriminant. Equal to the enumerator value
  /// today, but consumers must go through this field: the policy is that
  /// wire ids are append-only and never reused (docs/solvers.md).
  std::uint8_t wire_id = 0;
  /// Canonical name: what tools print and delta logs record.
  const char* name = "";
  /// Accepted spellings beyond the canonical name (parse-only).
  std::span<const std::string_view> aliases;

  // ---- capability flags ----
  bool costed = false;     ///< consumes per-job relocation costs
  bool budgeted = false;   ///< honors SolverParams::budget
  bool uses_eps = false;   ///< honors SolverParams::eps
  bool scratch_reusing = false;  ///< benefits from engine scratch arenas
  bool respects_k = true;  ///< honors the k-move bound (LPT reassigns all)
  /// A solve costs far more than caching its result (the PTAS DP grows
  /// exponentially in 1/eps), so the solution cache stores its forms from
  /// the first sighting instead of the second (docs/caching.md).
  bool expensive = false;

  /// Rejects out-of-bounds parameters; nullopt = valid. All current
  /// backends share the uniform bounds of validate_spec(), but the hook is
  /// per-backend so a future backend can tighten them in its own entry.
  std::optional<std::string> (*validate)(const SolverParams&) = nullptr;
  /// The serial reference entry point: no pool, no arenas. Forwards into
  /// the single dispatch switch with an empty context.
  RebalanceResult (*serial)(const Instance&, std::int64_t k,
                            const SolverParams&) = nullptr;
};

/// All registered backends, in BackendId order.
[[nodiscard]] std::span<const BackendDescriptor> all_backends();

[[nodiscard]] const BackendDescriptor& descriptor(BackendId id);

/// Lookup by canonical name or alias; nullptr if unknown.
[[nodiscard]] const BackendDescriptor* find_backend(std::string_view name);

/// Parses a canonical name or alias; returns false on an unknown name.
[[nodiscard]] bool parse_backend(std::string_view name, BackendId* out);

[[nodiscard]] const char* backend_name(BackendId id);

/// Canonical names joined with '|' (e.g. "greedy|m-partition|..."), for
/// tool usage/error text that should not go stale as backends are added.
[[nodiscard]] std::string backend_list();

/// Lookup by stable wire id; nullptr if the id names no backend. The wire
/// codecs' single range check (docs/serving.md).
[[nodiscard]] const BackendDescriptor* backend_by_wire_id(
    std::uint8_t wire_id);
[[nodiscard]] bool is_valid_wire_id(std::uint8_t wire_id);

/// Validates spec.params against its backend's bounds (budget >= 0, eps
/// finite and > 0); nullopt = valid. Streaming triggers and tools reject
/// invalid specs up front; the v1 Solve decode path stays permissive for
/// compatibility (out-of-range knobs there are simply ignored by backends
/// that do not consume them).
[[nodiscard]] std::optional<std::string> validate_spec(const SolverSpec& spec);

/// Folds parameters the backend declares it ignores to their defaults.
/// This is the cache-key normalization contract (docs/caching.md): two
/// specs that cannot produce different results share one key.
[[nodiscard]] SolverParams normalized_params(const SolverSpec& spec);

/// Appends the spec's deterministic cache-key bytes to `out`: the stable
/// wire id plus the normalized parameters in a fixed-width little-endian
/// layout — the same values the pre-registry key encoding folded in, so
/// legacy backends keep their hit ranges.
void encode_key_params(const SolverSpec& spec, std::string* out);

/// Optional acceleration context for solve(): a thread pool for the
/// intra-instance parallel scans and per-backend scratch arenas. Default
/// construction means "serial, allocate as you go" — exactly the serial
/// reference. Every accelerated path is bit-identical to the serial one
/// (m_partition.h / ptas.h), so a context never changes results.
struct SolveContext {
  ThreadPool* pool = nullptr;
  /// Instances with at least this many jobs use the intra-instance
  /// parallel scans when `pool` has more than one worker.
  std::size_t intra_parallel_min_jobs = static_cast<std::size_t>(-1);
  MPartitionScratch* m_partition = nullptr;
  PtasScratch* ptas = nullptr;
  std::vector<PtasScratch>* ptas_wave = nullptr;
};

/// THE dispatch switch (the only one in the codebase): runs `spec` on
/// `instance` under move budget `k`. Callers must pass a validated spec;
/// out-of-bounds parameters on backends that consume them are the
/// backend's own contract (the PTAS treats eps <= 0 as undefined).
[[nodiscard]] RebalanceResult solve(const SolverSpec& spec,
                                    const Instance& instance, std::int64_t k,
                                    const SolveContext& ctx);

/// solve() with an empty context: the serial reference entry point.
[[nodiscard]] RebalanceResult solve_serial(const SolverSpec& spec,
                                           const Instance& instance,
                                           std::int64_t k);

}  // namespace lrb::solver
