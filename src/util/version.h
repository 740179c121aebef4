// Build/version identification shared by every CLI tool, plus the wire and
// bench schema version constants, so load-test reports and fuzz repros are
// attributable to an exact binary ("which build produced this number?").

#pragma once

#include <cstdint>

namespace lrb {

/// Library version (kept in sync with the CMake project VERSION).
inline constexpr char kLrbVersion[] = "1.0.0";

/// Version field of the lrb_serve binary wire protocol (see svc/wire.h and
/// docs/serving.md). Bump on any incompatible frame or payload change.
inline constexpr std::uint16_t kWireVersion = 1;
/// Protocol level of the streaming-session frames (SessionOpen/SessionDelta
/// /SessionPlan/SessionStats/SessionClose — docs/streaming.md). Version-1
/// frames are unchanged and still accepted; a frame's version field must
/// match its message type's protocol level.
inline constexpr std::uint16_t kWireVersionV2 = 2;

/// Schema tag of the Stats JSON snapshot (obs::Registry::to_json), carried
/// in the snapshot's "schema" key and documented by lrb_serve --help.
inline constexpr char kStatsSchema[] = "lrb-stats-v1";

/// Schema tags of the committed machine-readable bench baselines.
inline constexpr char kEngineBenchSchema[] = "lrb-engine-bench-v2";
inline constexpr char kPtasBenchSchema[] = "lrb-ptas-bench-v1";
inline constexpr char kSvcBenchSchema[] = "lrb-svc-bench-v1";
/// Wrapper schema of bench/BENCH_svc.json: one lrb-svc-bench-v1 report per
/// serving profile ("reactors_1", "reactors_4"), so the committed baseline
/// records how the sharded front-end scales (docs/performance.md).
inline constexpr char kSvcBenchProfilesSchema[] = "lrb-svc-bench-v2";
/// v2 adds hardware_concurrency, build_type, the "unique" profile and the
/// inserts / admissions_deferred cache counters.
inline constexpr char kCacheBenchSchema[] = "lrb-cache-bench-v3";

/// CMAKE_BUILD_TYPE of this build ("unknown" when not configured by CMake),
/// for bench baselines to record next to their numbers.
[[nodiscard]] const char* build_type();

/// Prints "<tool> lrb/<version> (<build type>, asserts on|off)" plus the
/// wire/bench schema versions to stdout. Every tool maps --version here.
void print_version(const char* tool);

}  // namespace lrb
