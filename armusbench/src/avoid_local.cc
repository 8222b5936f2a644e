// avoid_local: one thread drives one avoidance-mode Verifier (no scanner,
// no store but the process-local one). A chain of blocked tasks stays in
// place; each op re-blocks one seeded chain task, and at a fixed rate an op
// instead closes a fresh planted cycle, which before_block must refuse.
#include <algorithm>
#include <memory>
#include <vector>

#include "layers.h"
#include "util/rng.h"
#include "workloads.h"

namespace armusbench {

namespace {

constexpr armus::TaskId kPlantBase = armus::TaskId{1} << 40;

struct Sizes {
  std::size_t chain = 256;   ///< blocked tasks kept in place
  double plants_per_s = 200;  ///< planted cycles per second
  std::size_t cycle = 3;     ///< tasks per planted cycle
};

/// Chain task i waits on (p_i, 1) and impedes (p_{i+1}, 1): task i+1 waits
/// on task i, down to task 0, whose event nothing impedes. Acyclic.
armus::BlockedStatus chain_status(std::size_t i) {
  const armus::TaskId task = i + 1;
  const armus::PhaserUid own = i + 1;
  return make_status(task, own, 1, {{own, 1}, {own + 1, 0}});
}

}  // namespace

void run_avoid_local(const Options& options, const PhaseSpec& spec,
                     PhaseResult& result) {
  Sizes sizes;
  if (options.tiny) sizes.chain = 64;
  armus::util::Xoshiro256 rng(options.seed);

  std::vector<std::size_t> order(sizes.chain);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<armus::BlockedStatus> chain;
  for (std::size_t i = 0; i < sizes.chain; ++i) chain.push_back(chain_status(i));

  std::unique_ptr<armus::Verifier> verifier;
  Meter& meter = result.meter;
  result.setup_s = timed_setups(spec, [&] {
    verifier.reset();
    armus::VerifierConfig config;
    config.mode = armus::VerifyMode::kAvoidance;
    config.scanner_enabled = false;
    config.on_deadlock = [](const armus::DeadlockReport&) {};
    verifier = std::make_unique<armus::Verifier>(config);
    for (std::size_t i : order) verifier->before_block(chain[i]);
  });

  std::uint64_t next_plant = kPlantBase;
  std::uint64_t planted = 0;
  std::uint64_t refused = 0;
  PlantClock plants(sizes.plants_per_s);
  armus::Verifier::Stats baseline;
  closed_loop(spec, meter, [&](Meter& m, std::uint64_t) {
    m.attempt();
    if (plants.due()) {
      std::vector<armus::TaskId> tasks;
      std::vector<armus::PhaserUid> phasers;
      for (std::size_t i = 0; i < sizes.cycle; ++i) {
        tasks.push_back(next_plant);
        phasers.push_back(next_plant++);
      }
      std::vector<armus::BlockedStatus> cycle = cycle_statuses(tasks, phasers);
      for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
        verifier->before_block(cycle[i]);
      }
      ++planted;
      const std::uint64_t start = now_ns();
      try {
        Span span("core.before_block");
        verifier->before_block(cycle.back());
        m.fail("planted cycle was not refused");
        verifier->after_unblock(cycle.back().task);
      } catch (const armus::DeadlockAvoidedError& e) {
        m.detect(us_between(start, now_ns()));
        if (e.report().tasks == tasks) {
          ++refused;
        } else {
          m.fail("refusal names the wrong task set");
        }
      }
      for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
        verifier->after_unblock(cycle[i].task);
      }
      return 1.0;
    }
    const armus::BlockedStatus& status = chain[rng.below(chain.size())];
    const std::uint64_t start = now_ns();
    try {
      {
        Span span("core.after_unblock");
        verifier->after_unblock(status.task);
      }
      Span span("core.before_block");
      verifier->before_block(status);
    } catch (const armus::DeadlockAvoidedError&) {
      m.fail("acyclic re-block was refused");
      return 1.0;
    }
    m.op(us_between(start, now_ns()));
    return 1.0;
  }, [&] { baseline = verifier->stats(); });

  const std::uint64_t expected = planted + (options.miscount ? 1 : 0);
  if (refused != expected) {
    meter.fail("refused " + std::to_string(refused) + " planted cycles of " +
               std::to_string(expected));
  }
  if (spec.traced) {
    add_core_layer(result.layers, {verifier->stats()}, {baseline});
  }
}

}  // namespace armusbench
