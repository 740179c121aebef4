// The parallel batch-solving engine: fans a stream of rebalancing
// instances across a ThreadPool with per-worker reusable Scratch arenas,
// and switches large instances to the intra-instance parallel paths
// (chunked M-PARTITION threshold scan, wave-parallel PTAS guess scan) on
// the same pool.
//
// Backend selection is a solver::SolverSpec resolved through the solver
// registry (solver/registry.h, docs/solvers.md); the engine itself
// contains no per-algorithm dispatch — it only supplies the pool and the
// scratch arenas to the registry's solve().
//
// One path for every item: canonicalize (cache/canonical.h), look the
// canonical form up in the solution cache when one is configured, solve
// the canonical instance, and map the plan back to the caller's labels.
// A reply is therefore a function of the instance's content alone: a
// relabeled instance gets the relabeled plan, whether the cache is on or
// off, cold or warm.
//
// Determinism contract: for a fixed (instances, ks, spec) input, solve()
// returns results byte-identical to cached_serial_reference applied one
// instance at a time, for every worker count, cache budget and across
// repeated runs. Both intra-instance parallel paths are bit-identical to
// their serial counterparts by construction (see m_partition.h /
// ptas.h), and inter-instance parallelism never reorders results: slot i
// of the output is always instance i's result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cache/canonical.h"
#include "cache/solution_cache.h"
#include "core/assignment.h"
#include "core/instance.h"
#include "core/types.h"
#include "engine/scratch.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "util/thread_pool.h"

namespace lrb::engine {

/// The serial reference every engine, server, session, chaos and fuzz
/// reply is checked against: canonicalize, solve the canonical instance
/// with the registry's serial entry point (no pool, no arenas), and map
/// the plan back through the recorded permutations (docs/caching.md).
/// The engine is byte-identical to this with the cache off, on a cold
/// miss and on a warm hit alike. For an instance already in canonical
/// form it coincides with solver::solve_serial.
[[nodiscard]] RebalanceResult cached_serial_reference(
    const solver::SolverSpec& spec, const Instance& instance, std::int64_t k);

struct BatchOptions {
  std::size_t workers = 0;  ///< pool size; 0 = hardware concurrency
  /// Backend + parameters for solve(); per-item entry points
  /// carry their own spec.
  solver::SolverSpec spec;
  /// Instances with at least this many jobs also use the intra-instance
  /// parallel scans. Purely a performance knob: both paths are
  /// bit-identical to the serial ones.
  std::size_t intra_parallel_min_jobs = std::size_t{1} << 14;
  /// Arena pre-sizing: instances within these bounds never reallocate in
  /// the scan hot path.
  std::size_t warm_jobs = std::size_t{1} << 12;
  ProcId warm_procs = 64;
  /// Metrics sink ("engine.*" counters and latency histogram). Defaults to
  /// the process-wide registry; tests and embedding servers may pass their
  /// own. Never read on a path that affects results.
  obs::Registry* metrics = &obs::Registry::global();
  /// Byte budget for the solution cache; 0 disables it. The cache is a
  /// memo between canonicalize and the canonical solve (admit → probe →
  /// solve on a first sighting or a miss), so it changes no reply bytes.
  /// Also sizes the admission doorkeeper. Exposed by lrb_serve --cache-mb.
  std::size_t cache_bytes = 0;
  /// Shard count for the solution cache (rounded up to a power of two).
  std::size_t cache_shards = 8;
};

class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
  [[nodiscard]] const BatchOptions& options() const noexcept {
    return options_;
  }

  /// Solves instance i with move budget ks[i] (ks.size() must equal
  /// instances.size()). Slot i of the returned vector is instance i's
  /// result. When `latencies_ms` is non-null it is resized and filled with
  /// each instance's wall-clock solve latency in milliseconds. Items
  /// deduplicated within the batch (same canonical form, spec and k)
  /// report only their own canonicalization time; the shared solve is
  /// attributed to the first item with that key.
  [[nodiscard]] std::vector<RebalanceResult> solve(
      const std::vector<Instance>& instances,
      const std::vector<std::int64_t>& ks,
      std::vector<double>* latencies_ms = nullptr);

  /// One request of a serving tick: a borrowed instance plus a per-request
  /// solver spec (the serving layer mixes backends within a tick).
  struct TickItem {
    const Instance* instance = nullptr;
    std::int64_t k = 0;
    solver::SolverSpec spec;
  };

  /// Same determinism contract over borrowed instances with per-item
  /// parameters: the tick entry point used by the serving layer
  /// (src/svc), which coalesces in-flight requests without copying their
  /// instances. All instance pointers must be non-null.
  [[nodiscard]] std::vector<RebalanceResult> solve_items(
      std::span<const TickItem> items,
      std::vector<double>* latencies_ms = nullptr);

  /// One-item tick with per-item parameters: the streaming-session replan
  /// entry (svc session handlers run it inline on their reactor thread).
  /// Identical to solve_items over a single-element span, so it carries
  /// the same determinism contract; a one-item tick runs on the calling
  /// thread (intra-instance parallelism still uses the pool for large
  /// instances).
  [[nodiscard]] RebalanceResult solve_item(const TickItem& item);

  /// The embedded solution cache, or nullptr when cache_bytes == 0.
  [[nodiscard]] cache::SolutionCache* solution_cache() noexcept {
    return cache_.get();
  }

 private:
  /// RAII lease on a Scratch arena from the free list. The list is
  /// self-healing: an empty list mints a fresh arena, so helping workers
  /// re-entering solve paths can never deadlock on arenas.
  class ScratchLease {
   public:
    explicit ScratchLease(BatchSolver& owner);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] Scratch& get() noexcept { return *scratch_; }

   private:
    BatchSolver& owner_;
    std::unique_ptr<Scratch> scratch_;
  };

  /// Runs the item through the registry with this engine's pool and the
  /// leased arenas, plus a debug-build makespan recheck.
  [[nodiscard]] RebalanceResult run_item(Scratch& scratch,
                                         const TickItem& item);
  /// Solves one canonicalized item and returns the result in CANONICAL
  /// labels. With a cache, a form SolutionCache::admit turns away (a first
  /// sighting) solves without touching the LRU, and an admitted form is
  /// probed first; the probe never blocks, so a key another thread is
  /// already solving is solved again here rather than waited for.
  [[nodiscard]] RebalanceResult solve_canonical(
      const TickItem& item, const cache::CanonicalInstance& canon,
      std::uint64_t content_hash);

  BatchOptions options_;
  ThreadPool pool_;
  std::unique_ptr<cache::SolutionCache> cache_;
  std::mutex scratch_mutex_;
  std::vector<std::unique_ptr<Scratch>> free_scratch_;
  // Engine observability (hot-path wait-free; see obs/metrics.h).
  obs::Counter& solved_counter_;
  obs::Counter& batch_counter_;
  obs::Histogram& solve_latency_ms_;
};

}  // namespace lrb::engine
