// The benchmark's three traffic mixes, generated from the workload seed
// before any timing starts. The server only ever sees the frames built
// here; the checks regenerate each request from its id.
//
//   solve-unique       v1 best-of Solves, every instance distinct
//   solve-repeat-ptas  v1 PTAS Solves, mostly relabelings of earlier ones
//   session-churn      wire-v2 sessions streaming arrive/depart/update deltas

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/assignment.h"
#include "core/instance.h"
#include "stream/session.h"
#include "svc/wire.h"

namespace e2e {

namespace svc = lrb::svc;
namespace stream = lrb::stream;
using lrb::Instance;
using lrb::ProcId;
using lrb::RebalanceResult;
using lrb::Size;

/// Connections and in-flight window of the solve workloads' closed loop.
inline constexpr std::size_t kSolveConnections = 2;
inline constexpr std::size_t kClosedWindow = 8;
/// Sessions (one per connection) and deltas per SessionDelta frame.
inline constexpr std::size_t kSessions = 4;
inline constexpr std::size_t kFrameDeltas = 16;

/// A stream of v1 Solve requests addressed by a dense request number r;
/// request r always travels with request id r.
class SolveWorkload {
 public:
  virtual ~SolveWorkload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Open-loop offered rate (requests/s) and its latency limit.
  [[nodiscard]] virtual double open_rate() const = 0;
  [[nodiscard]] virtual double slo_ms() const = 0;
  /// Requests of the untimed warm-up pass: ids [0, warmup_requests()).
  [[nodiscard]] virtual std::uint64_t warmup_requests() const = 0;
  /// Requests the workload can produce: ids [0, limit()).
  [[nodiscard]] virtual std::uint64_t limit() const = 0;

  /// The complete Solve frame of request r; may be built in `scratch`.
  [[nodiscard]] virtual std::string_view frame(std::uint64_t r,
                                               std::string& scratch) const = 0;
  [[nodiscard]] virtual svc::SolveRequest request(std::uint64_t r) const = 0;

  /// Precomputes whatever reference() shares between requests; call once
  /// with every id that will be checked, before checking in parallel.
  virtual void prepare_references(const std::vector<std::uint64_t>& ids,
                                  std::size_t threads);
  /// engine::cached_serial_reference for request r (the server runs its
  /// cache, so this is the reply it must send byte for byte).
  [[nodiscard]] virtual RebalanceResult reference(std::uint64_t r) const;
};

/// v1 best-of, k = n/4, instances from mixed_corpus_instance. The pool is
/// the first 3,000 canonically distinct corpus instances; request r takes
/// pool instance (r * 1237) mod 3000 and adds r / 3000 to job 0's size, so
/// requests do not share a canonical form. The warm-up (16,384 requests)
/// fills the 64 MiB cache, so timed requests miss, insert and evict.
/// Offered open loop: 12,000 req/s, limit 5 ms.
[[nodiscard]] std::unique_ptr<SolveWorkload> make_solve_unique(
    std::uint64_t seed);

/// v1 PTAS eps 0.4, k = n/4, on the 14-job / 4-processor corpus of
/// bench_cache (unique instance u is generated from seed 9100 + u). The
/// first 32 requests carry uniques 0..31 (the warm-up). After that, a
/// request carries the next fresh unique with probability 1/50 and
/// otherwise a seeded job-and-processor relabeling of an earlier one picked
/// by Zipf(1) popularity. Frames for `limit` requests are built up front.
/// Offered open loop: 2,000 req/s, limit 100 ms.
[[nodiscard]] std::unique_ptr<SolveWorkload> make_solve_repeat_ptas(
    std::uint64_t seed, std::uint64_t limit);

/// One streaming session's whole input.
struct SessionInput {
  std::uint64_t session_id = 0;
  Instance initial;
  stream::TriggerConfig trigger;
  std::vector<stream::Delta> deltas;
};

/// kSessions sessions, each opening on a 4,096-job / 64-processor hotspot
/// instance with triggers imbalance 1.5 and every 256 deltas (best-of,
/// move_frac 0.25), and streaming `deltas_per_session` deltas: 20% size
/// updates, and arrivals and departures in equal shares, so the live
/// size stays near 4,096.
[[nodiscard]] std::vector<SessionInput> make_session_churn(
    std::uint64_t seed, std::size_t deltas_per_session);

}  // namespace e2e
