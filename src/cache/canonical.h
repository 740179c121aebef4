// Instance canonicalization for the solution cache (docs/caching.md).
//
// Two instances that differ only by a relabeling of processors and/or jobs
// describe the same rebalancing problem. canonicalize() maps an Instance to
// a normal form that is invariant under both relabelings:
//
//   1. within each processor, jobs are sorted by (size, move_cost);
//   2. processors are sorted by their job multiset signature — the sorted
//      sequence of (size, move_cost) pairs they initially hold;
//   3. jobs are renumbered in processor-major order.
//
// The permutations connecting the caller's labeling to the canonical one
// are recorded, so a plan computed for the canonical instance can be mapped
// back to the original labels (map_to_original). Jobs with identical
// (size, move_cost, initial processor) are interchangeable; ties are broken
// by original index, which only affects which interchangeable job gets
// which canonical slot, never the canonical encoding itself.
//
// fingerprint() is a 128-bit hash over the canonical byte encoding plus the
// solve parameters. The cache treats it as a shard/bucket key only: every
// hit re-verifies the full key bytes, so even a 128-bit collision can never
// serve a wrong or mis-permuted result.
//
// content_hash() is the cheap 64-bit hash the admission doorkeeper runs on
// every request (SolutionCache::admit): it reads the canonical arrays
// directly, so a first sighting never builds the key string.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "core/types.h"
#include "solver/spec.h"

namespace lrb::cache {

/// 128-bit cache fingerprint. Equality-comparable and shard-indexable.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// An instance in canonical labels plus the permutations back to the
/// caller's labels.
struct CanonicalInstance {
  Instance instance;  ///< canonically relabeled jobs and processors

  /// job_to_canonical[j] = canonical slot of original job j.
  std::vector<JobId> job_to_canonical;
  /// job_from_canonical[c] = original job in canonical slot c.
  std::vector<JobId> job_from_canonical;
  /// proc_to_canonical[p] = canonical id of original processor p.
  std::vector<ProcId> proc_to_canonical;
  /// proc_from_canonical[c] = original processor with canonical id c.
  std::vector<ProcId> proc_from_canonical;
};

/// Canonicalizes `instance`. Deterministic; invariant under job/processor
/// relabeling of the input (same canonical encoding, different recorded
/// permutations). The input must pass lrb::validate.
[[nodiscard]] CanonicalInstance canonicalize(const Instance& instance);

/// Byte encoding of the canonical instance plus the solve parameters —
/// what the cache fingerprints and stores for exact hit verification. The
/// solver portion of the key (stable wire id + normalized parameters) is
/// encoded by the registry (solver::encode_key_params), so backends that
/// ignore a knob share one entry across its values (docs/caching.md).
[[nodiscard]] std::string encode_cache_key(const Instance& canonical,
                                           const solver::SolverSpec& spec,
                                           std::int64_t k);

/// 128-bit fingerprint of arbitrary bytes (two decorrelated 64-bit lanes,
/// splitmix64-style finalization).
[[nodiscard]] Fingerprint fingerprint(std::string_view bytes);

/// 64-bit hash of exactly what encode_cache_key encodes, computed straight
/// from the arrays: one independent mix per job, summed, so there is no
/// key string and no serial mix chain over the jobs. Equal keys give equal
/// hashes. Only admission reads it, so a collision can cost an extra solve
/// but never a wrong reply.
[[nodiscard]] std::uint64_t content_hash(const Instance& canonical,
                                         const solver::SolverSpec& spec,
                                         std::int64_t k);

/// True iff encode_cache_key would give both inputs the same bytes,
/// compared without building either string (the engine's batch dedup).
[[nodiscard]] bool same_cache_key(const Instance& a_canonical,
                                  const solver::SolverSpec& a_spec,
                                  std::int64_t a_k,
                                  const Instance& b_canonical,
                                  const solver::SolverSpec& b_spec,
                                  std::int64_t b_k);

/// Maps a plan computed for the canonical instance back to the original
/// labeling: assignment entries permute through the recorded job/processor
/// permutations; makespan, moves, cost and threshold are invariant under
/// the mapping and are copied verbatim.
[[nodiscard]] RebalanceResult map_to_original(const CanonicalInstance& canon,
                                              const RebalanceResult& result);

/// Inverse direction (used by the round-trip property tests): maps an
/// assignment over original labels to canonical labels.
[[nodiscard]] Assignment map_assignment_to_canonical(
    const CanonicalInstance& canon, const Assignment& original);

}  // namespace lrb::cache
