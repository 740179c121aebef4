#include "util/version.h"

#include <cstdio>

namespace lrb {

#ifndef LRB_BUILD_TYPE
#define LRB_BUILD_TYPE "unknown"
#endif

const char* build_type() { return LRB_BUILD_TYPE; }

void print_version(const char* tool) {
#ifdef NDEBUG
  constexpr const char* kAsserts = "asserts off";
#else
  constexpr const char* kAsserts = "asserts on";
#endif
  std::printf("%s lrb/%s (%s, %s)\n", tool, kLrbVersion, build_type(),
              kAsserts);
  std::printf("wire protocol: v%u (sessions: v%u)\n",
              static_cast<unsigned>(kWireVersion),
              static_cast<unsigned>(kWireVersionV2));
  std::printf("stats schema: %s\n", kStatsSchema);
  std::printf("bench schemas: %s %s %s %s %s\n", kEngineBenchSchema,
              kPtasBenchSchema, kSvcBenchSchema, kSvcBenchProfilesSchema,
              kCacheBenchSchema);
}

}  // namespace lrb
