#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "cache/canonical.h"
#include "common.h"
#include "core/generators.h"
#include "engine/batch_solver.h"
#include "solver/registry.h"
#include "util/rng.h"

namespace e2e {

namespace {

std::int64_t quarter_k(const Instance& instance) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(instance.num_jobs()) / 4);
}

std::string solve_frame(const svc::SolveRequest& request, std::uint64_t id) {
  std::string frame;
  svc::encode_frame(frame, svc::MsgType::kSolve, id,
                    svc::encode_solve_request(request));
  return frame;
}

void put_le64(std::string& buf, std::size_t offset, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream;
  return lrb::splitmix64(x);
}

// ---------------------------------------------------------------------------

class SolveUnique final : public SolveWorkload {
 public:
  static constexpr std::uint64_t kPool = 3000;
  static constexpr std::uint64_t kStride = 1237;  // coprime with kPool
  // Frame layout (svc/wire.h): 20-byte header with the request id at
  // offset 8, then a 40-byte Solve prefix, then job 0's i64 size.
  static constexpr std::size_t kIdOffset = 8;
  static constexpr std::size_t kJob0SizeOffset = svc::kHeaderSize + 40;

  explicit SolveUnique(std::uint64_t seed) {
    spec_ = lrb::solver::BackendId::kBestOf;
    pool_.reserve(kPool);
    frames_.reserve(kPool);
    // Degenerate corpus families (unit sizes on one processor, say) repeat
    // a canonical form under different seeds; keep the first kPool
    // canonically distinct instances so requests really are distinct.
    std::unordered_set<std::string> keys;
    for (std::uint64_t index = 0; pool_.size() < kPool; ++index) {
      Instance instance = lrb::mixed_corpus_instance(index, seed);
      const auto canon = lrb::cache::canonicalize(instance);
      if (!keys.insert(lrb::cache::encode_cache_key(canon.instance, spec_,
                                                    quarter_k(instance)))
               .second) {
        continue;
      }
      pool_.push_back(std::move(instance));
      frames_.push_back(solve_frame(pool_request(pool_.size() - 1), 0));
    }
    // The in-place patch must produce exactly the frame the codec would.
    const std::uint64_t probe = 7 * kPool + 11;
    std::string scratch;
    if (frame(probe, scratch) != solve_frame(request(probe), probe)) {
      throw std::runtime_error("solve-unique frame patch disagrees with codec");
    }
  }

  const char* name() const override { return "solve-unique"; }
  double open_rate() const override { return 12000.0; }
  double slo_ms() const override { return 5.0; }
  std::uint64_t warmup_requests() const override { return 16384; }
  std::uint64_t limit() const override { return ~std::uint64_t{0} >> 1; }

  std::string_view frame(std::uint64_t r, std::string& scratch) const override {
    const std::uint64_t b = base(r);
    scratch = frames_[b];
    put_le64(scratch, kIdOffset, r);
    put_le64(scratch, kJob0SizeOffset,
             static_cast<std::uint64_t>(pool_[b].sizes[0] + bump(r)));
    return scratch;
  }

  svc::SolveRequest request(std::uint64_t r) const override {
    svc::SolveRequest request = pool_request(base(r));
    request.instance.sizes[0] += bump(r);
    return request;
  }

 private:
  static std::uint64_t base(std::uint64_t r) { return (r * kStride) % kPool; }
  static std::int64_t bump(std::uint64_t r) {
    return static_cast<std::int64_t>(r / kPool);
  }

  svc::SolveRequest pool_request(std::uint64_t b) const {
    svc::SolveRequest request;
    request.spec = spec_;
    request.instance = pool_[b];
    request.k = quarter_k(request.instance);
    return request;
  }

  lrb::solver::SolverSpec spec_;
  std::vector<Instance> pool_;
  std::vector<std::string> frames_;
};

// ---------------------------------------------------------------------------

class SolveRepeatPtas final : public SolveWorkload {
 public:
  static constexpr std::uint64_t kInitial = 32;
  static constexpr double kFreshShare = 1.0 / 50.0;

  SolveRepeatPtas(std::uint64_t seed, std::uint64_t limit)
      : limit_(std::max(limit, kInitial)) {
    spec_ = lrb::solver::SolverSpec(lrb::solver::BackendId::kPtas,
                                    {.eps = 0.4});
    lrb::Rng rng(mix(seed, 1));
    std::vector<double> popularity;  // cumulative Zipf(1) weights
    auto add_unique = [&] {
      uniques_.push_back(make_unique(uniques_.size()));
      const double w = 1.0 / static_cast<double>(uniques_.size());
      popularity.push_back((popularity.empty() ? 0.0 : popularity.back()) + w);
      return uniques_.size() - 1;
    };
    unique_of_.reserve(limit_);
    relabel_.reserve(limit_);
    offsets_.reserve(limit_ + 1);
    for (std::uint64_t r = 0; r < limit_; ++r) {
      std::size_t u = 0;
      std::uint64_t relabel = 0;
      if (r < kInitial || rng.bernoulli(kFreshShare)) {
        u = add_unique();
      } else {
        const double x = rng.uniform01() * popularity.back();
        u = static_cast<std::size_t>(
            std::upper_bound(popularity.begin(), popularity.end(), x) -
            popularity.begin());
        u = std::min(u, uniques_.size() - 1);
        relabel = rng() | 1;  // 0 means "original labels"
      }
      unique_of_.push_back(static_cast<std::uint32_t>(u));
      relabel_.push_back(relabel);
      offsets_.push_back(arena_.size());
      arena_ += solve_frame(request(r), r);
    }
    offsets_.push_back(arena_.size());
  }

  const char* name() const override { return "solve-repeat-ptas"; }
  double open_rate() const override { return 2000.0; }
  double slo_ms() const override { return 100.0; }
  std::uint64_t warmup_requests() const override { return kInitial; }
  std::uint64_t limit() const override { return limit_; }

  std::string_view frame(std::uint64_t r, std::string&) const override {
    return std::string_view(arena_).substr(offsets_[r],
                                           offsets_[r + 1] - offsets_[r]);
  }

  svc::SolveRequest request(std::uint64_t r) const override {
    svc::SolveRequest request;
    request.spec = spec_;
    request.instance = relabeled(uniques_[unique_of_[r]], relabel_[r]);
    request.k = quarter_k(request.instance);
    return request;
  }

  void prepare_references(const std::vector<std::uint64_t>& ids,
                          std::size_t threads) override {
    std::vector<std::uint32_t> needed;
    for (const std::uint64_t r : ids) {
      if (!memo_.contains(unique_of_[r])) needed.push_back(unique_of_[r]);
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    std::vector<Canonical> solved(needed.size());
    parallel_for_index(needed.size(), threads, [&](std::size_t i) {
      const Instance& instance = uniques_[needed[i]];
      Canonical& c = solved[i];
      const auto canon = lrb::cache::canonicalize(instance);
      c.key = lrb::cache::encode_cache_key(canon.instance, spec_,
                                           quarter_k(instance));
      c.result = lrb::solver::solve_serial(spec_, canon.instance,
                                           quarter_k(instance));
    });
    for (std::size_t i = 0; i < needed.size(); ++i) {
      memo_[needed[i]] = std::move(solved[i]);
    }
  }

  /// cached_serial_reference with the canonical solve shared by every
  /// relabeling of one instance; falls back to the full reference if a
  /// relabeling ever canonicalizes differently.
  RebalanceResult reference(std::uint64_t r) const override {
    const svc::SolveRequest req = request(r);
    const auto found = memo_.find(unique_of_[r]);
    const auto canon = lrb::cache::canonicalize(req.instance);
    if (found == memo_.end() ||
        lrb::cache::encode_cache_key(canon.instance, spec_, req.k) !=
            found->second.key) {
      return lrb::engine::cached_serial_reference(spec_, req.instance, req.k);
    }
    return lrb::cache::map_to_original(canon, found->second.result);
  }

 private:
  struct Canonical {
    std::string key;
    RebalanceResult result;
  };

  /// Unique instance u of the fixed bench_cache / bench_ptas corpus (seed
  /// 9100 + u): every workload seed meets the same DP work in the same
  /// order, and the seed decides when it arrives and how it is relabeled.
  static Instance make_unique(std::uint64_t u) {
    lrb::GeneratorOptions gen;
    gen.num_jobs = 14;
    gen.num_procs = 4;
    gen.min_size = 1;
    gen.max_size = 100;
    gen.max_cost = 10;
    gen.size_dist = static_cast<lrb::SizeDistribution>(u % 5);
    gen.placement = static_cast<lrb::PlacementPolicy>((u / 5) % 5);
    return lrb::random_instance(gen, 9100 + u);
  }

  static Instance relabeled(const Instance& base, std::uint64_t relabel) {
    if (relabel == 0) return base;
    lrb::Rng rng(relabel);
    std::vector<std::size_t> jobs(base.num_jobs());
    std::iota(jobs.begin(), jobs.end(), std::size_t{0});
    std::vector<ProcId> procs(base.num_procs);
    std::iota(procs.begin(), procs.end(), ProcId{0});
    lrb::shuffle(std::span<std::size_t>(jobs), rng);
    lrb::shuffle(std::span<ProcId>(procs), rng);
    Instance out;
    out.num_procs = base.num_procs;
    for (const std::size_t j : jobs) {
      out.sizes.push_back(base.sizes[j]);
      out.move_costs.push_back(base.move_costs[j]);
      out.initial.push_back(procs[base.initial[j]]);
    }
    return out;
  }

  std::uint64_t limit_;
  lrb::solver::SolverSpec spec_;
  std::vector<Instance> uniques_;
  std::vector<std::uint32_t> unique_of_;
  std::vector<std::uint64_t> relabel_;
  std::vector<std::size_t> offsets_;
  std::string arena_;
  std::unordered_map<std::uint32_t, Canonical> memo_;
};

}  // namespace

void SolveWorkload::prepare_references(const std::vector<std::uint64_t>&,
                                       std::size_t) {}

RebalanceResult SolveWorkload::reference(std::uint64_t r) const {
  const svc::SolveRequest req = request(r);
  return lrb::engine::cached_serial_reference(req.spec, req.instance, req.k);
}

std::unique_ptr<SolveWorkload> make_solve_unique(std::uint64_t seed) {
  return std::make_unique<SolveUnique>(seed);
}

std::unique_ptr<SolveWorkload> make_solve_repeat_ptas(std::uint64_t seed,
                                                      std::uint64_t limit) {
  return std::make_unique<SolveRepeatPtas>(seed, limit);
}

std::vector<SessionInput> make_session_churn(std::uint64_t seed,
                                             std::size_t deltas_per_session) {
  std::vector<SessionInput> sessions(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionInput& in = sessions[s];
    in.session_id = 1 + s;
    lrb::GeneratorOptions gen;
    gen.num_jobs = 4096;
    gen.num_procs = 64;
    gen.placement = lrb::PlacementPolicy::kHotspot;
    in.initial = lrb::random_instance(gen, mix(seed, 2000 + s));
    in.trigger.spec = lrb::solver::BackendId::kBestOf;
    in.trigger.move_frac = 0.25;
    in.trigger.imbalance_ratio = 1.5;
    in.trigger.delta_count = 256;

    lrb::Rng rng(mix(seed, 3000 + s));
    std::vector<std::uint64_t> alive(in.initial.num_jobs());
    std::iota(alive.begin(), alive.end(), std::uint64_t{0});
    std::uint64_t next_id = alive.size();
    in.deltas.reserve(deltas_per_session);
    for (std::size_t i = 0; i < deltas_per_session; ++i) {
      stream::Delta d;
      const double u = rng.uniform01();
      if (u < 0.2 && !alive.empty()) {
        d.kind = stream::DeltaKind::kJobUpdate;
        d.id = alive[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
        d.size = rng.uniform_int(gen.min_size, gen.max_size);
      } else if (u < 0.6 && !alive.empty()) {
        d.kind = stream::DeltaKind::kJobDepart;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
        d.id = alive[at];
        alive[at] = alive.back();
        alive.pop_back();
      } else {
        d.kind = stream::DeltaKind::kJobArrive;
        d.id = next_id++;
        d.size = rng.uniform_int(gen.min_size, gen.max_size);
        alive.push_back(d.id);
      }
      in.deltas.push_back(d);
    }
  }
  return sessions;
}

}  // namespace e2e
