// lrb_chaos: seeded fault-injection campaigns against the rebalancing
// service (docs/testing.md, "Chaos harness").
//
// Each campaign spins up an in-process lrb server behind a server-side
// FaultInjector, fires resilient clients at it through client-side
// injectors, and asserts the full resilience contract: every request gets
// exactly one outcome, every completed reply is byte-identical to
// engine::cached_serial_reference, and no client gives up. Every fault
// schedule is a pure function of the campaign seed, so any failure this
// tool reports replays with:
//
//   lrb_chaos --seed BASE --campaign-index I --campaigns 1
//
// (the failing campaign's own seed is printed; --seed-list replays an
// explicit set, which is how tests/corpus/chaos_seeds.txt pins past
// failures).
//
//   lrb_chaos --campaigns 50 --check
//   lrb_chaos --smoke --check            # CI preset
//
// Flags (defaults in parentheses):
//   --campaigns N (50)     number of seeded campaigns
//   --seed S (1)           base seed; campaign i uses campaign_seed(S, i)
//   --campaign-index I (0) first campaign index (for replaying one seed)
//   --clients N (2)        resilient clients per campaign
//   --requests N (8)       solve requests per client
//   --algo NAME (best-of)  solver-registry backend (canonical name or
//                          alias, docs/solvers.md): greedy, m-partition,
//                          best-of, ptas, lpt, local-search
//   --reactors N (1)       reactor shards in the server under test
//   --tick-workers N (1)   engine tick workers in the server under test
//   --stream               streaming-session campaigns instead of one-shot
//                          Solves: --clients concurrent sessions each
//                          streaming --requests x 8 deltas under fault
//                          injection, every ack byte-compared against the
//                          serial replay mirror and the delta ledger
//                          checked for lost/duplicated deltas
//                          (docs/streaming.md; restarts do not apply)
//   --restart-every K (4)  every Kth campaign drains + restarts the
//                          server mid-campaign (0 = never)
//   --seed-list CSV        run exactly these campaign seeds (decimal or
//                          0x-hex, comma-separated); overrides --campaigns
//   --check                byte-compare every reply vs the serial reference
//   --smoke                CI preset: 8 campaigns x 2 clients x 4 requests
//   --verbose              print each campaign's fault plans
//   --version              print version/schema info and exit
//
// Exit status is 2 for an out-of-range flag value (--campaigns and
// --requests in [1, 10^6]; --clients, --reactors and --tick-workers in
// [1, 1024]; --restart-every in [0, 10^6]; --campaign-index and --seed
// >= 0), checked before any server starts. Otherwise it is nonzero iff
// any campaign failed.

#include <algorithm>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "solver/registry.h"
#include "svc/fault/chaos.h"
#include "util/flags.h"
#include "util/version.h"

namespace {

// Upper bounds for the count flags: each client (and each server thread)
// is an OS thread, and campaigns run one after another.
constexpr std::int64_t kMaxThreads = 1024;
constexpr std::int64_t kMaxCount = 1'000'000;

int fail(const std::string& message) {
  std::cerr << "lrb_chaos: " << message << "\n";
  return 1;
}

/// A flag value out of range: exit 2, before any server starts.
int bad_flag(const std::string& message) {
  std::cerr << "lrb_chaos: " << message << "\n";
  return 2;
}

bool parse_seed_list(const std::string& text,
                     std::vector<std::uint64_t>* seeds) {
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    try {
      seeds->push_back(std::stoull(token, nullptr, 0));
    } catch (...) {
      return false;
    }
  }
  return !seeds->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_chaos");
    return 0;
  }
  for (const auto& key : flags.keys()) {
    static const char* known[] = {
        "campaigns", "seed",    "campaign-index", "clients",
        "requests",  "algo",    "restart-every",  "seed-list",
        "reactors",  "tick-workers", "stream",
        "check",     "smoke",   "verbose",        "version"};
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known)) {
      return fail("unknown flag '--" + key + "'");
    }
  }

  const bool smoke = flags.has("smoke");
  // The first bad flag is reported once everything is read.
  std::string flag_error;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t campaigns = flags.get_int_in(
      "campaigns", smoke ? 8 : 50, 1, kMaxCount, &flag_error);
  const std::int64_t clients =
      flags.get_int_in("clients", 2, 1, kMaxThreads, &flag_error);
  const std::int64_t requests = flags.get_int_in(
      "requests", smoke ? 4 : 8, 1, kMaxCount, &flag_error);
  const std::int64_t restart_every =
      flags.get_int_in("restart-every", 4, 0, kMaxCount, &flag_error);
  const std::int64_t first_index =
      flags.get_int_in("campaign-index", 0, 0, kMax - kMaxCount, &flag_error);
  const std::int64_t reactors =
      flags.get_int_in("reactors", 1, 1, kMaxThreads, &flag_error);
  const std::int64_t tick_workers =
      flags.get_int_in("tick-workers", 1, 1, kMaxThreads, &flag_error);
  const auto base_seed = static_cast<std::uint64_t>(
      flags.get_int_in("seed", 1, 0, kMax, &flag_error));
  if (!flag_error.empty()) return bad_flag(flag_error);

  solver::SolverSpec spec;
  const std::string algo_text = flags.get_or("algo", "best-of");
  if (!solver::parse_backend(algo_text, &spec.backend)) {
    return fail("unknown --algo '" + algo_text + "' (want " +
                solver::backend_list() + ")");
  }

  std::vector<std::uint64_t> seeds;
  if (const auto list = flags.get("seed-list")) {
    if (!parse_seed_list(*list, &seeds)) {
      return fail("bad --seed-list '" + *list + "'");
    }
  } else {
    for (std::int64_t i = 0; i < campaigns; ++i) {
      seeds.push_back(svc::fault::campaign_seed(
          base_seed, static_cast<std::uint64_t>(first_index + i)));
    }
  }

  std::size_t failures = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_retries = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    svc::fault::CampaignOptions options;
    options.seed = seeds[i];
    options.clients = static_cast<std::size_t>(clients);
    options.requests_per_client = static_cast<std::size_t>(requests);
    options.solver = spec;
    options.reactors = static_cast<std::size_t>(reactors);
    options.tick_workers = static_cast<std::size_t>(tick_workers);
    options.check = flags.has("check");
    options.restart_server =
        restart_every > 0 &&
        (i + 1) % static_cast<std::size_t>(restart_every) == 0;
    if (flags.has("stream")) {
      options.stream_sessions = static_cast<std::size_t>(clients);
      options.deltas_per_session = static_cast<std::size_t>(requests) * 8;
      options.restart_server = false;  // sessions die with the server
    }
    const auto result = svc::fault::run_campaign(options);
    total_faults +=
        result.server_faults.total + result.client_faults.total;
    total_retries += result.retries;
    if (flags.has("verbose") || !result.ok) {
      std::cout << "lrb_chaos: campaign " << i
                << (options.restart_server ? " [restart]" : "") << " "
                << result.summary() << "\n"
                << "lrb_chaos:   server plan "
                << result.server_plan.describe() << "\n"
                << "lrb_chaos:   client plan "
                << result.client_plan.describe() << "\n";
    }
    if (!result.ok) {
      ++failures;
      for (const auto& error : result.errors) {
        std::cerr << "lrb_chaos: campaign " << i << ": " << error << "\n";
      }
      std::cerr << "lrb_chaos: replay with --seed-list 0x" << std::hex
                << seeds[i] << std::dec << "\n";
    }
  }

  std::cout << "lrb_chaos: " << seeds.size() << " campaigns, "
            << (seeds.size() - failures) << " ok, " << failures
            << " failed (" << total_faults << " faults injected, "
            << total_retries << " client retries)\n";
  return failures == 0 ? 0 : 1;
}
