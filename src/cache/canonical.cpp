#include "cache/canonical.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "solver/registry.h"

namespace lrb::cache {

namespace {

/// splitmix64 finalizer over a copy (util/rng.h keeps the streaming form).
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// eps as encode_key_params writes it: raw bits, so 0.0 and -0.0 stay
/// distinct as they do in the key bytes.
std::uint64_t eps_bits(const solver::SolverParams& params) {
  return std::bit_cast<std::uint64_t>(params.eps);
}

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

}  // namespace

CanonicalInstance canonicalize(const Instance& instance) {
  const std::size_t n = instance.num_jobs();
  const ProcId m = instance.num_procs;

  CanonicalInstance canon;
  canon.job_to_canonical.resize(n);
  canon.job_from_canonical.resize(n);
  canon.proc_to_canonical.resize(m);
  canon.proc_from_canonical.resize(m);

  // Jobs grouped by initial processor, sorted within each processor by
  // (size, move_cost); original index as a deterministic last tie-break
  // (interchangeable jobs — it cannot affect the canonical encoding).
  std::vector<std::vector<JobId>> by_proc(m);
  for (std::size_t j = 0; j < n; ++j) {
    by_proc[instance.initial[j]].push_back(static_cast<JobId>(j));
  }
  for (auto& jobs : by_proc) {
    std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
      if (instance.sizes[a] != instance.sizes[b]) {
        return instance.sizes[a] < instance.sizes[b];
      }
      if (instance.move_costs[a] != instance.move_costs[b]) {
        return instance.move_costs[a] < instance.move_costs[b];
      }
      return a < b;
    });
  }

  // Processors ordered by their job multiset signature (lexicographic over
  // the sorted (size, cost) sequences), original id as the tie-break among
  // identically-loaded processors.
  std::vector<ProcId> proc_order(m);
  for (ProcId p = 0; p < m; ++p) proc_order[p] = p;
  const auto signature_less = [&](ProcId a, ProcId b) {
    const auto& ja = by_proc[a];
    const auto& jb = by_proc[b];
    const std::size_t common = std::min(ja.size(), jb.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (instance.sizes[ja[i]] != instance.sizes[jb[i]]) {
        return instance.sizes[ja[i]] < instance.sizes[jb[i]];
      }
      if (instance.move_costs[ja[i]] != instance.move_costs[jb[i]]) {
        return instance.move_costs[ja[i]] < instance.move_costs[jb[i]];
      }
    }
    if (ja.size() != jb.size()) return ja.size() < jb.size();
    return a < b;
  };
  std::sort(proc_order.begin(), proc_order.end(), signature_less);

  canon.instance.num_procs = m;
  canon.instance.sizes.reserve(n);
  canon.instance.move_costs.reserve(n);
  canon.instance.initial.reserve(n);
  for (ProcId c = 0; c < m; ++c) {
    const ProcId p = proc_order[c];
    canon.proc_from_canonical[c] = p;
    canon.proc_to_canonical[p] = c;
    for (const JobId j : by_proc[p]) {
      const auto slot = static_cast<JobId>(canon.instance.sizes.size());
      canon.job_to_canonical[j] = slot;
      canon.job_from_canonical[slot] = j;
      canon.instance.sizes.push_back(instance.sizes[j]);
      canon.instance.move_costs.push_back(instance.move_costs[j]);
      canon.instance.initial.push_back(c);
    }
  }
  return canon;
}

std::string encode_cache_key(const Instance& canonical,
                             const solver::SolverSpec& spec, std::int64_t k) {
  std::string out;
  out.reserve(32 + canonical.num_jobs() * 20);
  solver::encode_key_params(spec, &out);
  append_u64(out, static_cast<std::uint64_t>(k));
  append_u32(out, canonical.num_procs);
  append_u32(out, static_cast<std::uint32_t>(canonical.num_jobs()));
  for (std::size_t j = 0; j < canonical.num_jobs(); ++j) {
    append_u64(out, static_cast<std::uint64_t>(canonical.sizes[j]));
    append_u64(out, static_cast<std::uint64_t>(canonical.move_costs[j]));
    append_u32(out, canonical.initial[j]);
  }
  return out;
}

Fingerprint fingerprint(std::string_view bytes) {
  // Two decorrelated lanes over 8-byte words; each word is finalized with
  // mix64 before folding so single-bit input changes avalanche both lanes.
  std::uint64_t h1 = 0x9ae16a3b2f90404fULL ^ bytes.size();
  std::uint64_t h2 = 0xc949d7c7509e6557ULL + bytes.size();
  std::size_t i = 0;
  while (i + 8 <= bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h1 = mix64(h1 ^ mix64(w ^ 0x8ebc6af09c88c6e3ULL));
    h2 = mix64(h2 + mix64(w ^ 0x589965cc75374cc3ULL));
    i += 8;
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    h1 = mix64(h1 ^ mix64(tail ^ 0x8ebc6af09c88c6e3ULL));
    h2 = mix64(h2 + mix64(tail ^ 0x589965cc75374cc3ULL));
  }
  Fingerprint fp;
  fp.hi = mix64(h1 ^ h2);
  fp.lo = mix64(h2 + (h1 << 1) + 0x9e3779b97f4a7c15ULL);
  return fp;
}

std::uint64_t content_hash(const Instance& canonical,
                           const solver::SolverSpec& spec, std::int64_t k) {
  const solver::SolverParams params = solver::normalized_params(spec);
  std::uint64_t h = mix64(solver::descriptor(spec.backend).wire_id ^
                          0x2545f4914f6cdd1dULL);
  h = mix64(h ^ static_cast<std::uint64_t>(params.budget));
  h = mix64(h ^ eps_bits(params));
  h = mix64(h ^ static_cast<std::uint64_t>(k));
  h = mix64(h ^ (std::uint64_t{canonical.num_procs} << 32 |
                 static_cast<std::uint32_t>(canonical.num_jobs())));
  // Each job's term depends only on its own fields and position, so the
  // loop carries nothing but an add and the mixes pipeline across jobs.
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < canonical.num_jobs(); ++j) {
    const std::uint64_t salt = (j + 1) * 0x9e3779b97f4a7c15ULL;
    sum += mix64(static_cast<std::uint64_t>(canonical.sizes[j]) ^ salt) ^
           mix64((static_cast<std::uint64_t>(canonical.move_costs[j]) +
                  canonical.initial[j] * 0xd6e8feb86659fd93ULL) ^
                 std::rotl(salt, 29));
  }
  return mix64(h ^ sum);
}

bool same_cache_key(const Instance& a_canonical,
                    const solver::SolverSpec& a_spec, std::int64_t a_k,
                    const Instance& b_canonical,
                    const solver::SolverSpec& b_spec, std::int64_t b_k) {
  if (a_k != b_k || a_spec.backend != b_spec.backend) return false;
  const solver::SolverParams a = solver::normalized_params(a_spec);
  const solver::SolverParams b = solver::normalized_params(b_spec);
  return a.budget == b.budget && eps_bits(a) == eps_bits(b) &&
         a_canonical.num_procs == b_canonical.num_procs &&
         a_canonical.sizes == b_canonical.sizes &&
         a_canonical.move_costs == b_canonical.move_costs &&
         a_canonical.initial == b_canonical.initial;
}

RebalanceResult map_to_original(const CanonicalInstance& canon,
                                const RebalanceResult& result) {
  assert(result.assignment.size() == canon.job_from_canonical.size());
  RebalanceResult mapped;
  mapped.makespan = result.makespan;
  mapped.moves = result.moves;
  mapped.cost = result.cost;
  mapped.threshold = result.threshold;
  mapped.assignment.resize(result.assignment.size());
  for (std::size_t c = 0; c < result.assignment.size(); ++c) {
    mapped.assignment[canon.job_from_canonical[c]] =
        canon.proc_from_canonical[result.assignment[c]];
  }
  return mapped;
}

Assignment map_assignment_to_canonical(const CanonicalInstance& canon,
                                       const Assignment& original) {
  assert(original.size() == canon.job_to_canonical.size());
  Assignment mapped(original.size());
  for (std::size_t j = 0; j < original.size(); ++j) {
    mapped[canon.job_to_canonical[j]] =
        canon.proc_to_canonical[original[j]];
  }
  return mapped;
}

}  // namespace lrb::cache
