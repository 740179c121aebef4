// lrb_sweep: evaluate every unit-cost (non-costed) solver registry backend
// across a sweep of move budgets on one instance, in parallel, and print a
// comparison table.
//
//   lrb_sweep instance.lrb --k 1,2,4,8,16,32 [--csv] [--threads N]
//
// Each (algorithm, k) cell runs as an independent task on the thread pool;
// results are deterministic regardless of the thread count. --threads must
// be in [0, 1024] (0 = hardware concurrency); out of range it exits 2
// before the instance is read or the pool started.

#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/io.h"
#include "core/lower_bounds.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/version.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

int fail(const std::string& message) {
  std::cerr << "lrb_sweep: " << message << "\n";
  return 1;
}

std::vector<std::int64_t> parse_budgets(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::istringstream iss(csv);
  std::string token;
  while (std::getline(iss, token, ',')) {
    if (!token.empty()) out.push_back(std::stoll(token));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrb;
  const Flags flags(argc, argv);
  if (flags.has("version")) {
    print_version("lrb_sweep");
    return 0;
  }
  if (flags.positional().size() != 1) {
    return fail("usage: lrb_sweep <instance.lrb> [--k 1,2,4,...] [--csv] "
                "[--threads N]\n  runs the non-costed backends of " +
                solver::backend_list());
  }
  std::string flag_error;
  const auto threads = static_cast<std::size_t>(
      flags.get_int_in("threads", 0, 0, 1024, &flag_error));
  if (!flag_error.empty()) {
    std::cerr << "lrb_sweep: " << flag_error << "\n";
    return 2;
  }
  std::ifstream in(flags.positional()[0]);
  if (!in) return fail("cannot open " + flags.positional()[0]);
  std::string error;
  const auto instance = read_instance(in, &error);
  if (!instance) return fail("parse error: " + error);

  const auto budgets = parse_budgets(flags.get_or("k", "1,2,4,8,16,32"));
  if (budgets.empty()) return fail("--k list is empty");

  struct Cell {
    const solver::BackendDescriptor* backend = nullptr;
    std::int64_t k = 0;
    RebalanceResult result;
    double millis = 0;
  };
  std::vector<Cell> cells;
  for (const solver::BackendDescriptor& backend : solver::all_backends()) {
    if (backend.costed) continue;
    for (std::int64_t k : budgets) {
      cells.push_back({&backend, k, {}, 0});
    }
  }

  ThreadPool pool(threads);
  parallel_for(pool, 0, cells.size(), [&](std::size_t i) {
    Timer timer;
    cells[i].result =
        solver::solve_serial(cells[i].backend->id, *instance, cells[i].k);
    cells[i].millis = timer.millis();
  });

  std::cerr << "instance: " << instance->num_jobs() << " jobs on "
            << instance->num_procs << " processors; initial makespan "
            << instance->initial_makespan() << "\n";
  Table table({"algorithm", "k", "makespan", "moves", "cost", "vs LB", "ms"});
  for (const auto& cell : cells) {
    const Size lb = combined_lower_bound(*instance, cell.k);
    table.row()
        .add(cell.backend->name)
        .add(cell.k)
        .add(cell.result.makespan)
        .add(cell.result.moves)
        .add(cell.result.cost)
        .add(lb > 0 ? static_cast<double>(cell.result.makespan) /
                          static_cast<double>(lb)
                    : 1.0,
             4)
        .add(cell.millis, 3);
  }
  if (flags.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
