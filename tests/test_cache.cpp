// Property battery for the canonicalizing solution cache (src/cache/,
// docs/caching.md): canonicalization is idempotent and invariant under
// job/processor relabeling, fingerprints separate canonically distinct
// instances, permutation mapping round-trips exactly, the sharded LRU
// evicts in recency order with exact byte accounting, a probe never
// waits on a key another caller is solving, admission keeps
// first sightings out of the LRU, and the cache-enabled engine stays
// byte-identical to cached_serial_reference.
//
// Suite names all contain `Cache` so the thread-sanitize CI job picks the
// concurrency tests up via its -R filter.

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/canonical.h"
#include "cache/solution_cache.h"
#include "core/assignment.h"
#include "core/generators.h"
#include "core/instance.h"
#include "engine/batch_solver.h"
#include "obs/metrics.h"
#include "solver/registry.h"
#include "util/rng.h"

namespace lrb {
namespace {

using cache::CanonicalInstance;
using cache::Fingerprint;
using cache::SolutionCache;
using solver::BackendId;

Instance corpus_instance(std::size_t index) {
  return mixed_corpus_instance(index, /*seed=*/0xabcdefULL);
}

/// Relabels jobs and processors: job_perm[j] / proc_perm[p] are the NEW ids
/// of old job j / old processor p. The relabeled instance describes the
/// same problem.
Instance relabel(const Instance& in, const std::vector<JobId>& job_perm,
                 const std::vector<ProcId>& proc_perm) {
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

std::vector<JobId> random_job_perm(std::size_t n, Rng& rng) {
  std::vector<JobId> perm(n);
  std::iota(perm.begin(), perm.end(), JobId{0});
  shuffle(std::span<JobId>(perm), rng);
  return perm;
}

std::vector<ProcId> random_proc_perm(ProcId m, Rng& rng) {
  std::vector<ProcId> perm(m);
  std::iota(perm.begin(), perm.end(), ProcId{0});
  shuffle(std::span<ProcId>(perm), rng);
  return perm;
}

/// True iff `key` is stored. A miss hands back the leadership it took, so
/// the probe changes nothing but the counters and the LRU order.
bool stored(SolutionCache& cache, const Fingerprint& fp,
            const std::string& key) {
  const auto probe = cache.lookup_or_begin(fp, key);
  if (probe.leader) cache.cancel(fp, key);
  return probe.hit;
}

std::string canonical_key(const Instance& instance) {
  const CanonicalInstance canon = cache::canonicalize(instance);
  return cache::encode_cache_key(canon.instance, BackendId::kBestOf, /*k=*/7);
}

TEST(CacheCanonical, IdempotentAndIdentityOnCanonicalForm) {
  for (std::size_t index = 0; index < 24; ++index) {
    const Instance instance = corpus_instance(index);
    const CanonicalInstance canon = cache::canonicalize(instance);
    ASSERT_EQ(validate(canon.instance), std::nullopt);

    // Canonicalizing the canonical instance is the identity.
    const CanonicalInstance again = cache::canonicalize(canon.instance);
    EXPECT_EQ(again.instance.sizes, canon.instance.sizes);
    EXPECT_EQ(again.instance.move_costs, canon.instance.move_costs);
    EXPECT_EQ(again.instance.initial, canon.instance.initial);
    for (std::size_t j = 0; j < again.job_to_canonical.size(); ++j) {
      EXPECT_EQ(again.job_to_canonical[j], static_cast<JobId>(j));
    }
    for (ProcId p = 0; p < again.instance.num_procs; ++p) {
      EXPECT_EQ(again.proc_to_canonical[p], p);
    }

    // The recorded permutations are mutually inverse bijections.
    for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
      EXPECT_EQ(canon.job_from_canonical[canon.job_to_canonical[j]],
                static_cast<JobId>(j));
    }
    for (ProcId p = 0; p < instance.num_procs; ++p) {
      EXPECT_EQ(canon.proc_from_canonical[canon.proc_to_canonical[p]], p);
    }

    // Canonicalization permutes, never alters, the job population.
    EXPECT_EQ(canon.instance.total_size(), instance.total_size());
    EXPECT_EQ(canon.instance.initial_makespan(), instance.initial_makespan());
  }
}

TEST(CacheCanonical, InvariantUnderRelabeling) {
  Rng rng(0x1234);
  for (std::size_t index = 0; index < 24; ++index) {
    const Instance instance = corpus_instance(index);
    const std::string key = canonical_key(instance);
    const Fingerprint fp = cache::fingerprint(key);
    for (int trial = 0; trial < 4; ++trial) {
      const auto job_perm = random_job_perm(instance.num_jobs(), rng);
      const auto proc_perm = random_proc_perm(instance.num_procs, rng);
      const Instance shuffled = relabel(instance, job_perm, proc_perm);
      const std::string shuffled_key = canonical_key(shuffled);
      EXPECT_EQ(shuffled_key, key) << "instance " << index;
      EXPECT_EQ(cache::fingerprint(shuffled_key), fp);
    }
  }
}

TEST(CacheCanonical, FingerprintSeparatesDistinctInstances) {
  // Canonically distinct instances must get distinct fingerprints (128 bits
  // over ~100 keys: a collision here means the hash is broken, not unlucky).
  std::vector<std::pair<std::string, Fingerprint>> seen;
  for (std::size_t index = 0; index < 60; ++index) {
    const std::string key = canonical_key(corpus_instance(index));
    const Fingerprint fp = cache::fingerprint(key);
    for (const auto& [other_key, other_fp] : seen) {
      if (other_key != key) {
        EXPECT_FALSE(other_fp == fp) << "collision at index " << index;
      }
    }
    seen.emplace_back(key, fp);
  }
  // Solve parameters are part of the key: same instance, different k /
  // algo / eps must all be distinct.
  const CanonicalInstance canon =
      cache::canonicalize(corpus_instance(0));
  const auto key_of = [&](BackendId backend, std::int64_t k, double eps) {
    return cache::encode_cache_key(
        canon.instance, solver::SolverSpec(backend, {.eps = eps}), k);
  };
  EXPECT_NE(key_of(BackendId::kGreedy, 5, 1.0),
            key_of(BackendId::kMPartition, 5, 1.0));
  EXPECT_NE(key_of(BackendId::kGreedy, 5, 1.0),
            key_of(BackendId::kGreedy, 6, 1.0));
  EXPECT_NE(key_of(BackendId::kPtas, 5, 0.5),
            key_of(BackendId::kPtas, 5, 0.25));
}

TEST(CacheCanonical, ContentHashAndSameKeyAgreeWithTheKeyBytes) {
  // content_hash and same_cache_key stand in for the key bytes on the
  // admission and dedup paths, so they must follow the key exactly: equal
  // keys give equal hashes and same_cache_key, distinct keys give
  // same_cache_key false (and, over this corpus, distinct hashes).
  struct Case {
    CanonicalInstance canon;
    solver::SolverSpec spec;
    std::int64_t k = 0;
    std::string key;
  };
  std::vector<Case> cases;
  Rng rng(0x4d2);
  for (std::size_t index = 0; index < 24; ++index) {
    const Instance instance = corpus_instance(index);
    const Instance shuffled =
        relabel(instance, random_job_perm(instance.num_jobs(), rng),
                random_proc_perm(instance.num_procs, rng));
    for (const Instance* labeling : {&instance, &shuffled}) {
      for (const solver::SolverSpec& spec :
           {solver::SolverSpec(BackendId::kBestOf),
            // Knobs best-of ignores normalize into the same key.
            solver::SolverSpec(BackendId::kBestOf, {.budget = 9, .eps = 0.3}),
            solver::SolverSpec(BackendId::kPtas, {.eps = 0.5}),
            solver::SolverSpec(BackendId::kPtas, {.eps = 0.25})}) {
        for (const std::int64_t k : {3, 4}) {
          Case c{cache::canonicalize(*labeling), spec, k, {}};
          c.key = cache::encode_cache_key(c.canon.instance, spec, k);
          cases.push_back(std::move(c));
        }
      }
    }
  }
  std::size_t equal_pairs = 0;
  for (const Case& a : cases) {
    const std::uint64_t hash =
        cache::content_hash(a.canon.instance, a.spec, a.k);
    for (const Case& b : cases) {
      const bool same_key = a.key == b.key;
      equal_pairs += same_key ? 1 : 0;
      EXPECT_EQ(cache::same_cache_key(a.canon.instance, a.spec, a.k,
                                      b.canon.instance, b.spec, b.k),
                same_key);
      EXPECT_EQ(hash == cache::content_hash(b.canon.instance, b.spec, b.k),
                same_key);
    }
  }
  // Per instance: two best-of keys (k = 3, 4), each occurring 4 times (2
  // labelings x 2 specs that normalize together), and four PTAS keys, each
  // occurring twice (2 labelings) — so the equal branch really ran.
  EXPECT_EQ(equal_pairs, 24u * (2 * 4 * 4 + 4 * 2 * 2));
}

TEST(CacheCanonical, MappingRoundTripsAndPreservesAccounting) {
  Rng rng(0x77);
  for (std::size_t index = 0; index < 16; ++index) {
    const Instance instance = corpus_instance(index);
    const CanonicalInstance canon = cache::canonicalize(instance);
    const std::int64_t k =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      instance.num_jobs() / 8));
    const RebalanceResult canonical =
        solver::solve_serial(BackendId::kBestOf, canon.instance, k);
    const RebalanceResult mapped = cache::map_to_original(canon, canonical);

    // The mapped plan is a valid assignment of the ORIGINAL instance whose
    // exact accounting equals the canonical scalars: makespan, moves and
    // cost are invariant under relabeling.
    ASSERT_EQ(validate(instance, mapped.assignment), std::nullopt);
    EXPECT_EQ(makespan(instance, mapped.assignment), canonical.makespan);
    EXPECT_EQ(moves_used(instance, mapped.assignment), canonical.moves);
    EXPECT_EQ(relocation_cost(instance, mapped.assignment), canonical.cost);
    EXPECT_EQ(mapped.makespan, canonical.makespan);
    EXPECT_EQ(mapped.moves, canonical.moves);
    EXPECT_EQ(mapped.cost, canonical.cost);
    EXPECT_EQ(mapped.threshold, canonical.threshold);

    // Inverse mapping round-trips exactly.
    const Assignment back =
        cache::map_assignment_to_canonical(canon, mapped.assignment);
    EXPECT_EQ(back, canonical.assignment);
    (void)rng;
  }
}

TEST(CacheLru, EvictsInRecencyOrderWithExactByteAccounting) {
  obs::Registry registry;
  const Instance instance = corpus_instance(3);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult result =
      solver::solve_serial(BackendId::kGreedy, canon.instance, 4);

  const auto key_for = [&](std::int64_t k) {
    return cache::encode_cache_key(canon.instance, BackendId::kGreedy, k);
  };
  const std::size_t per_entry = SolutionCache::entry_bytes(
      key_for(0).size(), result.assignment.size());

  cache::CacheOptions options;
  options.shards = 1;  // deterministic: one LRU list
  options.max_bytes = 3 * per_entry;
  options.metrics = &registry;
  SolutionCache cache(options);
  ASSERT_EQ(cache.shard_count(), 1u);

  const auto fp_for = [&](std::int64_t k) {
    return cache::fingerprint(key_for(k));
  };
  for (std::int64_t k = 0; k < 3; ++k) {
    cache.publish(fp_for(k), key_for(k), result);
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * per_entry);
  EXPECT_EQ(registry.gauge("cache.bytes").value(),
            static_cast<std::int64_t>(3 * per_entry));
  EXPECT_EQ(registry.gauge("cache.entries").value(), 3);

  // Touch key 0 so key 1 is now the LRU tail; the next insert evicts 1.
  EXPECT_TRUE(stored(cache, fp_for(0), key_for(0)));
  cache.publish(fp_for(3), key_for(3), result);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);
  EXPECT_FALSE(stored(cache, fp_for(1), key_for(1)));
  EXPECT_TRUE(stored(cache, fp_for(0), key_for(0)));
  EXPECT_TRUE(stored(cache, fp_for(2), key_for(2)));
  EXPECT_TRUE(stored(cache, fp_for(3), key_for(3)));

  // Re-inserting an existing key refreshes in place: no growth, no eviction.
  cache.publish(fp_for(3), key_for(3), result);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.bytes(), 3 * per_entry);
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);

  // An entry larger than the whole budget is refused, not thrashed in.
  cache::CacheOptions tiny;
  tiny.shards = 1;
  tiny.max_bytes = per_entry - 1;
  tiny.metrics = &registry;
  SolutionCache small(tiny);
  small.publish(fp_for(0), key_for(0), result);
  EXPECT_EQ(small.entries(), 0u);
  EXPECT_EQ(small.bytes(), 0u);
}

TEST(CacheLru, HitVerifiesFullKeyBytesNotJustTheFingerprint) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);

  const Instance instance = corpus_instance(5);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult result =
      solver::solve_serial(BackendId::kGreedy, canon.instance, 2);
  const std::string key_a =
      cache::encode_cache_key(canon.instance, BackendId::kGreedy, 2);
  const std::string key_b =
      cache::encode_cache_key(canon.instance, BackendId::kMPartition, 2);
  const Fingerprint fp = cache::fingerprint(key_a);

  // Deliberately look key_b up under key_a's fingerprint (a simulated
  // 128-bit collision): the stored key bytes differ, so it must miss.
  cache.publish(fp, key_a, result);
  EXPECT_TRUE(stored(cache, fp, key_a));
  EXPECT_FALSE(stored(cache, fp, key_b));

  // Same collision against an in-flight leader: the prober is told to
  // solve uncached (no hit, no leadership, no blocking).
  const auto leader = cache.lookup_or_begin(cache::fingerprint(key_b), key_b);
  EXPECT_FALSE(leader.hit);
  EXPECT_TRUE(leader.leader);
  const auto collided = cache.lookup_or_begin(cache::fingerprint(key_b),
                                              key_a);
  EXPECT_FALSE(collided.hit);
  EXPECT_FALSE(collided.leader);
  cache.cancel(cache::fingerprint(key_b), key_b);
}

TEST(CacheSingleFlight, NoBlockProbeNeverWaitsOnALeader) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);

  const Instance instance = corpus_instance(6);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const std::string key =
      cache::encode_cache_key(canon.instance, BackendId::kGreedy, 4);
  const Fingerprint fp = cache::fingerprint(key);

  const auto leader = cache.lookup_or_begin(fp, key);
  ASSERT_TRUE(leader.leader);

  // With a leader in flight, a probe for the SAME key must return
  // immediately with neither a hit nor leadership — the engine depends on
  // this to never park a pool worker.
  const auto bypass =
      cache.lookup_or_begin(fp, key, SolutionCache::WaitMode::kNoBlock);
  EXPECT_FALSE(bypass.hit);
  EXPECT_FALSE(bypass.leader);
  EXPECT_EQ(registry.counter("cache.single_flight_bypass").value(), 1u);

  // Once the leader publishes, probes hit.
  cache.publish(fp, key,
                solver::solve_serial(BackendId::kGreedy, canon.instance, 4));
  const auto hit =
      cache.lookup_or_begin(fp, key, SolutionCache::WaitMode::kNoBlock);
  EXPECT_TRUE(hit.hit);
}

TEST(CacheEngine, CachedSolvesAreByteIdenticalColdAndWarm) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);
  ASSERT_NE(solver.solution_cache(), nullptr);

  std::vector<Instance> instances;
  std::vector<std::int64_t> ks;
  for (std::size_t index = 0; index < 12; ++index) {
    instances.push_back(corpus_instance(index));
    ks.push_back(static_cast<std::int64_t>(index % 5) + 1);
  }
  // First sighting (deferred, never cached), second (admitted: a miss
  // that inserts), third (warm hit).
  const auto first = solver.solve(instances, ks);
  const auto cold = solver.solve(instances, ks);
  const auto warm = solver.solve(instances, ks);
  ASSERT_EQ(cold.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const RebalanceResult want = engine::cached_serial_reference(
        options.spec, instances[i], ks[i]);
    EXPECT_EQ(first[i].assignment, want.assignment) << "first " << i;
    EXPECT_EQ(cold[i].assignment, want.assignment) << "cold " << i;
    EXPECT_EQ(warm[i].assignment, want.assignment) << "warm " << i;
    EXPECT_EQ(first[i].makespan, want.makespan);
    EXPECT_EQ(cold[i].makespan, want.makespan);
    EXPECT_EQ(warm[i].moves, want.moves);
    EXPECT_EQ(warm[i].cost, want.cost);
    EXPECT_EQ(warm[i].threshold, want.threshold);
  }
  // Two solves per instance (deferred + admitted miss); the warm pass was
  // served from cache.
  const std::uint64_t n = instances.size();
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 2 * n);
  EXPECT_EQ(registry.counter("cache.admissions_deferred").value(), n);
  EXPECT_EQ(registry.counter("cache.misses").value(), n);
  EXPECT_EQ(registry.counter("cache.inserts").value(), n);
  EXPECT_EQ(registry.counter("cache.hits").value(), n);
}

TEST(CacheEngine, RelabeledInstancesHitTheSameEntry) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  Rng rng(0x5150);
  const Instance instance = corpus_instance(11);
  // The first sighting is deferred; the second admits it (miss + insert).
  const RebalanceResult original =
      solver.solve_item({&instance, 6, options.spec});
  EXPECT_EQ(solver.solve_item({&instance, 6, options.spec}).assignment,
            original.assignment);
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 2u);
  EXPECT_EQ(registry.counter("cache.inserts").value(), 1u);

  for (int trial = 0; trial < 5; ++trial) {
    const auto job_perm = random_job_perm(instance.num_jobs(), rng);
    const auto proc_perm = random_proc_perm(instance.num_procs, rng);
    const Instance shuffled = relabel(instance, job_perm, proc_perm);
    const RebalanceResult got = solver.solve_item({&shuffled, 6, options.spec});
    // Same canonical entry (no extra solve), mapped back to the relabeled
    // instance's own labels — byte-identical to its serial reference.
    const RebalanceResult want = engine::cached_serial_reference(
        options.spec, shuffled, 6);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.makespan, original.makespan);
    EXPECT_EQ(got.moves, original.moves);
    EXPECT_EQ(got.cost, original.cost);
  }
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 2u);
  EXPECT_EQ(registry.counter("cache.hits").value(), 5u);
}

TEST(CacheEngine, BatchDedupSolvesIdenticalItemsOnce) {
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  const Instance instance = corpus_instance(2);
  constexpr std::size_t kCopies = 24;
  std::vector<engine::BatchSolver::TickItem> items(kCopies);
  for (auto& item : items) {
    item.instance = &instance;
    item.k = 4;
    item.spec = BackendId::kBestOf;
  }
  const auto results = solver.solve_items(items);
  ASSERT_EQ(results.size(), kCopies);
  const RebalanceResult want = engine::cached_serial_reference(
      BackendId::kBestOf, instance, 4);
  for (const auto& result : results) {
    EXPECT_EQ(result.assignment, want.assignment);
  }
  // One solve fanned out to all 24 replies.
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 1u);
}

TEST(CacheEngine, ConcurrentTicksSharingKeysNeverDeadlock) {
  // Regression for a wait-for cycle: a leader whose solve enters a nested
  // parallel_for help-drains the pool queue, and could pop ANOTHER tick's
  // probe task — which, when probes could block, parked on a different
  // key's leader, itself blocked the same way on the first key. Two
  // concurrent ticks sharing two duplicate keys could hang forever. Probes
  // never block now, so this hammer — ticks
  // racing over the same key set from several threads, with every solve
  // forced through the nested intra-instance parallel path — must always
  // terminate, every reply byte-identical to the cached reference.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  options.intra_parallel_min_jobs = 1;  // every solve help-drains
  engine::BatchSolver solver(options);

  std::vector<Instance> instances;
  std::vector<RebalanceResult> want;
  for (std::size_t index = 0; index < 4; ++index) {
    instances.push_back(corpus_instance(index));
    want.push_back(
        engine::cached_serial_reference(options.spec, instances.back(), 3));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      std::vector<engine::BatchSolver::TickItem> items(instances.size());
      for (int round = 0; round < kRounds; ++round) {
        // Each thread's tick covers the same keys, rotated so concurrent
        // ticks keep meeting each other's in-flight leaders.
        for (std::size_t i = 0; i < instances.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(t)) % instances.size();
          items[i].instance = &instances[pick];
          items[i].k = 3;
          items[i].spec = options.spec;
        }
        const auto results = solver.solve_items(items);
        for (std::size_t i = 0; i < items.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(t)) % instances.size();
          if (results[i].assignment != want[pick].assignment) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CacheEngine, DedupKeysDistinguishAlgoAndPtasParameters) {
  // Satellite regression: a batch mixing per-item algorithm selections
  // over the SAME instance must not collapse into one cache entry.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 4;
  options.cache_bytes = std::size_t{8} << 20;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  const Instance instance = corpus_instance(6);
  using Item = engine::BatchSolver::TickItem;
  std::vector<Item> items;
  const auto add = [&](BackendId backend, Cost budget, double eps) {
    Item item;
    item.instance = &instance;
    item.k = 5;
    item.spec = solver::SolverSpec(backend, {.budget = budget, .eps = eps});
    items.push_back(item);
  };
  add(BackendId::kGreedy, kInfCost, 1.0);
  add(BackendId::kMPartition, kInfCost, 1.0);
  add(BackendId::kBestOf, kInfCost, 1.0);
  add(BackendId::kPtas, kInfCost, 0.5);
  add(BackendId::kPtas, kInfCost, 0.25);  // distinct eps: distinct key
  // Budget/eps knobs are irrelevant to greedy: normalized into the SAME key.
  add(BackendId::kGreedy, 123, 0.125);

  const auto results = solver.solve_items(items);
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RebalanceResult want = engine::cached_serial_reference(
        items[i].spec, instance, items[i].k);
    EXPECT_EQ(results[i].assignment, want.assignment) << "item " << i;
    EXPECT_EQ(results[i].makespan, want.makespan) << "item " << i;
  }
  // 5 distinct keys (both greedy variants normalized together).
  EXPECT_EQ(registry.counter("engine.instances_solved").value(), 5u);
  EXPECT_EQ(results[0].assignment, results[5].assignment);
}

TEST(CacheEngine, ManyThreadsHammeringTheSolverStayConsistent) {
  // TSan target: concurrent solve_item calls over a small instance pool
  // exercise probe / in-flight bypass / publish / eviction from many
  // threads.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{1} << 16;  // small: forces evictions
  options.cache_shards = 2;
  options.metrics = &registry;
  engine::BatchSolver solver(options);

  constexpr std::size_t kInstances = 12;
  std::vector<Instance> instances;
  std::vector<RebalanceResult> want;
  instances.reserve(kInstances);
  for (std::size_t index = 0; index < kInstances; ++index) {
    instances.push_back(corpus_instance(index));
    want.push_back(engine::cached_serial_reference(
        options.spec, instances.back(), 3));
  }

  constexpr int kThreads = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int iter = 0; iter < 40; ++iter) {
        const auto index = static_cast<std::size_t>(
            rng.uniform_int(0, kInstances - 1));
        const RebalanceResult got =
            solver.solve_item({&instances[index], 3, options.spec});
        if (got.assignment != want[index].assignment) failed.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  // Byte accounting must still be exact after the churn.
  auto* cache = solver.solution_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(cache->bytes()),
            registry.gauge("cache.bytes").value());
  EXPECT_EQ(static_cast<std::int64_t>(cache->entries()),
            registry.gauge("cache.entries").value());
}

// ---- admission: a canonical form enters the LRU on its second sighting --

/// A cache-enabled solver on its own registry, plus counter shorthands.
struct AdmissionFixture {
  explicit AdmissionFixture(std::size_t workers = 2) {
    options.workers = workers;
    options.cache_bytes = std::size_t{8} << 20;
    options.metrics = &registry;
    solver = std::make_unique<engine::BatchSolver>(options);
  }
  RebalanceResult solve(const Instance& instance, std::int64_t k) {
    return solver->solve_item({&instance, k, options.spec});
  }
  std::uint64_t counter(const char* name) {
    return registry.counter(name).value();
  }
  obs::Registry registry;
  engine::BatchOptions options;
  std::unique_ptr<engine::BatchSolver> solver;
};

void expect_same_reply(const RebalanceResult& got,
                       const RebalanceResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.moves, want.moves);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.threshold, want.threshold);
}

TEST(CacheAdmission, FirstSightingInsertsNothingAndMatchesTheReference) {
  AdmissionFixture f;
  const Instance instance = corpus_instance(3);
  expect_same_reply(f.solve(instance, 4),
                    engine::cached_serial_reference(f.options.spec,
                                                    instance, 4));
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 1u);
  EXPECT_EQ(f.counter("engine.instances_solved"), 1u);
  EXPECT_EQ(f.counter("cache.hits"), 0u);
  EXPECT_EQ(f.counter("cache.misses"), 0u);
  EXPECT_EQ(f.counter("cache.inserts"), 0u);
  EXPECT_EQ(f.solver->solution_cache()->entries(), 0u);
  EXPECT_EQ(f.registry.gauge("cache.bytes").value(), 0);
}

TEST(CacheAdmission, RemembersOneFirstSightingPer512BytesOfBudget) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.max_bytes = std::size_t{1} << 20;
  options.metrics = &registry;
  SolutionCache cache(options);
  // Consecutive hashes spread evenly over the buckets (their low-order
  // bits pick one), so a budget's worth of first sightings fills every
  // way exactly once and each one is still remembered afterwards.
  const std::uint64_t sightings = options.max_bytes / 512;
  for (std::uint64_t h = 1; h <= sightings; ++h) EXPECT_FALSE(cache.admit(h));
  for (std::uint64_t h = 1; h <= sightings; ++h) {
    ASSERT_TRUE(cache.admit(h)) << h;
  }
  EXPECT_EQ(registry.counter("cache.admissions_deferred").value(), sightings);
}

TEST(CacheAdmission, FormsSharingABucketAreRememberedSideBySide) {
  obs::Registry registry;
  cache::CacheOptions options;
  options.metrics = &registry;
  SolutionCache cache(options);
  // Hashes that differ only above bit 40 share a bucket in any table.
  const auto in_bucket = [](std::uint64_t i) {
    return 0x1234567ULL + (i << 40);
  };
  // Two forms requested alternately: both are admitted on their second
  // sighting instead of evicting each other's record.
  EXPECT_FALSE(cache.admit(in_bucket(0)));
  EXPECT_FALSE(cache.admit(in_bucket(1)));
  EXPECT_TRUE(cache.admit(in_bucket(0)));
  EXPECT_TRUE(cache.admit(in_bucket(1)));
  // A bucket keeps its 8 newest first sightings: the ninth pushes out the
  // oldest, which is then a first sighting again.
  for (std::uint64_t i = 2; i < 9; ++i) EXPECT_FALSE(cache.admit(in_bucket(i)));
  EXPECT_FALSE(cache.admit(in_bucket(0)));
  EXPECT_TRUE(cache.admit(in_bucket(8)));
  EXPECT_EQ(registry.counter("cache.admissions_deferred").value(), 10u);
}

TEST(CacheAdmission, AStoredFormIsAdmittedUntilItsEntryIsEvicted) {
  obs::Registry registry;
  const Instance instance = corpus_instance(3);
  const CanonicalInstance canon = cache::canonicalize(instance);
  const RebalanceResult result =
      solver::solve_serial(BackendId::kGreedy, canon.instance, 4);
  const auto key_for = [&](std::int64_t k) {
    return cache::encode_cache_key(canon.instance, BackendId::kGreedy, k);
  };
  cache::CacheOptions options;
  options.shards = 1;
  options.max_bytes =
      2 * SolutionCache::entry_bytes(key_for(0).size(),
                                     result.assignment.size());
  options.metrics = &registry;
  SolutionCache cache(options);
  const auto in_bucket = [](std::uint64_t i) {
    return 0x89abcdULL + (i << 40);
  };

  cache.publish(cache::fingerprint(key_for(0)), key_for(0), result,
                in_bucket(0));
  // Its bucket forgets every earlier sighting, but the stored form is
  // still let through to its hit.
  for (std::uint64_t i = 1; i <= 8; ++i) {
    EXPECT_FALSE(cache.admit(in_bucket(i)));
  }
  EXPECT_TRUE(cache.admit(in_bucket(0)));
  EXPECT_TRUE(
      stored(cache, cache::fingerprint(key_for(0)), key_for(0)));
  // Re-publishing refreshes the entry without double-counting it.
  cache.publish(cache::fingerprint(key_for(0)), key_for(0), result,
                in_bucket(0));
  EXPECT_TRUE(cache.admit(in_bucket(0)));

  // Two newer entries evict it; from then on it is a first sighting again.
  cache.publish(cache::fingerprint(key_for(1)), key_for(1), result);
  cache.publish(cache::fingerprint(key_for(2)), key_for(2), result);
  ASSERT_EQ(registry.counter("cache.evictions").value(), 1u);
  EXPECT_FALSE(
      stored(cache, cache::fingerprint(key_for(0)), key_for(0)));
  EXPECT_FALSE(cache.admit(in_bucket(0)));
}

TEST(CacheAdmission, AStoredFormStillHitsAfterAFloodOfUniqueForms) {
  // The smallest doorkeeper (1,024 ways): 4,096 unique first sightings
  // overwrite every bucket several times over.
  obs::Registry registry;
  engine::BatchOptions options;
  options.workers = 2;
  options.cache_bytes = std::size_t{64} << 10;
  options.metrics = &registry;
  engine::BatchSolver solver(options);
  const auto solve = [&](const Instance& instance) {
    return solver.solve_item({&instance, 3, options.spec});
  };
  const auto counter = [&](const char* name) {
    return registry.counter(name).value();
  };

  const Instance stored = corpus_instance(5);
  const RebalanceResult want =
      engine::cached_serial_reference(options.spec, stored, 3);
  expect_same_reply(solve(stored), want);
  expect_same_reply(solve(stored), want);
  ASSERT_EQ(counter("cache.inserts"), 1u);

  constexpr std::uint64_t kUnique = 4096;
  GeneratorOptions gen;
  gen.num_jobs = 8;
  gen.num_procs = 3;
  gen.max_size = 1000;
  for (std::uint64_t seed = 0; seed < kUnique; ++seed) {
    (void)solve(random_instance(gen, 0xf100d + seed));
  }
  EXPECT_EQ(counter("cache.admissions_deferred"), 1 + kUnique);
  EXPECT_EQ(counter("cache.inserts"), 1u);

  expect_same_reply(solve(stored), want);
  EXPECT_EQ(counter("cache.hits"), 1u);
  EXPECT_EQ(counter("cache.misses"), 1u);
  EXPECT_EQ(counter("engine.instances_solved"), 2 + kUnique);
}

TEST(CacheAdmission, SecondSightingIsAMissThatInsertsAndTheThirdHits) {
  AdmissionFixture f;
  const Instance instance = corpus_instance(5);
  const RebalanceResult want =
      engine::cached_serial_reference(f.options.spec, instance, 3);

  expect_same_reply(f.solve(instance, 3), want);
  expect_same_reply(f.solve(instance, 3), want);
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 1u);
  EXPECT_EQ(f.counter("cache.misses"), 1u);
  EXPECT_EQ(f.counter("cache.inserts"), 1u);
  EXPECT_EQ(f.counter("cache.hits"), 0u);
  EXPECT_EQ(f.counter("engine.instances_solved"), 2u);
  EXPECT_EQ(f.solver->solution_cache()->entries(), 1u);

  expect_same_reply(f.solve(instance, 3), want);
  EXPECT_EQ(f.counter("cache.hits"), 1u);
  EXPECT_EQ(f.counter("cache.misses"), 1u);
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 1u);
  EXPECT_EQ(f.counter("engine.instances_solved"), 2u);

  // A different k is a different key: its own first sighting.
  (void)f.solve(instance, 4);
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 2u);
  EXPECT_EQ(f.counter("cache.inserts"), 1u);
}

TEST(CacheAdmission, AnExpensiveBackendIsCachedFromItsFirstSighting) {
  AdmissionFixture f;
  GeneratorOptions gen;
  gen.num_jobs = 12;
  gen.num_procs = 3;
  gen.max_size = 100;
  const Instance instance = random_instance(gen, 0x9a5);
  const solver::SolverSpec spec(BackendId::kPtas, {.eps = 0.5});
  ASSERT_TRUE(solver::descriptor(spec.backend).expensive);
  const RebalanceResult want =
      engine::cached_serial_reference(spec, instance, 3);

  // No deferred sighting: the first request is a miss that inserts, the
  // second a hit, so the DP runs once.
  expect_same_reply(f.solver->solve_item({&instance, 3, spec}), want);
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 0u);
  EXPECT_EQ(f.counter("cache.misses"), 1u);
  EXPECT_EQ(f.counter("cache.inserts"), 1u);
  expect_same_reply(f.solver->solve_item({&instance, 3, spec}), want);
  EXPECT_EQ(f.counter("cache.hits"), 1u);
  EXPECT_EQ(f.counter("engine.instances_solved"), 1u);
}

TEST(CacheAdmission, ARelabeledInstanceCountsAsTheSameSighting) {
  AdmissionFixture f;
  Rng rng(0xad3);
  const Instance instance = corpus_instance(8);
  std::vector<Instance> labelings{instance};
  for (int i = 0; i < 2; ++i) {
    labelings.push_back(relabel(instance,
                                random_job_perm(instance.num_jobs(), rng),
                                random_proc_perm(instance.num_procs, rng)));
  }
  // Sightings 1, 2, 3 under three labelings: deferred, admitted, hit —
  // each reply in its own labels.
  for (const Instance& labeling : labelings) {
    expect_same_reply(f.solve(labeling, 5),
                      engine::cached_serial_reference(f.options.spec,
                                                      labeling, 5));
  }
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 1u);
  EXPECT_EQ(f.counter("cache.misses"), 1u);
  EXPECT_EQ(f.counter("cache.inserts"), 1u);
  EXPECT_EQ(f.counter("cache.hits"), 1u);
  EXPECT_EQ(f.counter("engine.instances_solved"), 2u);
}

TEST(CacheAdmission, IdenticalFirstSightingsInOneTickSolveOnce) {
  AdmissionFixture f(/*workers=*/4);
  Rng rng(0x71c);
  const Instance instance = corpus_instance(9);
  const Instance shuffled =
      relabel(instance, random_job_perm(instance.num_jobs(), rng),
              random_proc_perm(instance.num_procs, rng));
  using Item = engine::BatchSolver::TickItem;
  const std::vector<Item> items{{&instance, 4, f.options.spec},
                                {&shuffled, 4, f.options.spec},
                                {&instance, 4, f.options.spec}};
  const auto check = [&](const std::vector<RebalanceResult>& got) {
    ASSERT_EQ(got.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_reply(got[i], engine::cached_serial_reference(
                                    f.options.spec, *items[i].instance, 4));
    }
  };
  // The tick's copies dedup to one representative, which is the content's
  // one (deferred) sighting: one solve, nothing inserted.
  check(f.solver->solve_items(items));
  EXPECT_EQ(f.counter("engine.instances_solved"), 1u);
  EXPECT_EQ(f.counter("cache.admissions_deferred"), 1u);
  EXPECT_EQ(f.counter("cache.inserts"), 0u);
  // The next tick is the second sighting, the one after that a hit.
  check(f.solver->solve_items(items));
  check(f.solver->solve_items(items));
  EXPECT_EQ(f.counter("engine.instances_solved"), 2u);
  EXPECT_EQ(f.counter("cache.inserts"), 1u);
  EXPECT_EQ(f.counter("cache.hits"), 1u);
}

TEST(CacheAdmission, ManyThreadsMixingUniqueAndRepeatedKeys) {
  // TSan target: the doorkeeper's relaxed slots, in-flight keys and publish
  // raced from many threads, with unique keys (never cached) interleaved
  // with a small repeated set. Every reply is byte-checked.
  AdmissionFixture f;
  constexpr std::size_t kRepeated = 6;
  constexpr int kThreads = 8;
  constexpr int kIters = 30;
  std::vector<Instance> repeated;
  std::vector<RebalanceResult> want;
  for (std::size_t index = 0; index < kRepeated; ++index) {
    repeated.push_back(corpus_instance(index));
    want.push_back(engine::cached_serial_reference(f.options.spec,
                                                   repeated.back(), 3));
  }

  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> uniques{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 17);
      for (int iter = 0; iter < kIters; ++iter) {
        if (iter % 2 == 0) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, kRepeated - 1));
          if (f.solve(repeated[pick], 3).assignment !=
              want[pick].assignment) {
            mismatches.fetch_add(1);
          }
        } else {
          // Distinct per (thread, iter). Not corpus_instance: its unit-size
          // families repeat canonical forms across indices.
          GeneratorOptions gen;
          gen.num_jobs = 48;
          gen.num_procs = 6;
          gen.max_size = 1000;
          const Instance unique = random_instance(
              gen, 0x0417 + static_cast<std::uint64_t>(t * kIters + iter));
          if (f.solve(unique, 3).assignment !=
              engine::cached_serial_reference(f.options.spec, unique, 3)
                  .assignment) {
            mismatches.fetch_add(1);
          }
          uniques.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Uniques are each sighted once, so none is cached; only repeated keys
  // can be inserted, each at most once (8 MiB never evicts here).
  EXPECT_GE(f.counter("cache.admissions_deferred"), uniques.load());
  EXPECT_LE(f.counter("cache.inserts"), kRepeated);
  EXPECT_EQ(f.counter("cache.evictions"), 0u);
  EXPECT_EQ(f.solver->solution_cache()->entries(),
            f.counter("cache.inserts"));
  EXPECT_EQ(static_cast<std::int64_t>(f.solver->solution_cache()->bytes()),
            f.registry.gauge("cache.bytes").value());
}

}  // namespace
}  // namespace lrb
