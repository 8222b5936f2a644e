// barrier_kv: a real phaser barrier program over the write-through store.
// T task threads each advance their own phaser and their neighbour's (in
// phaser order, so the program never deadlocks). The Verifier runs in
// detection mode with the scanner off over dist::SharedStore ->
// net::RemoteStore (one connection) -> an in-process armus-kv server, so
// every block and unblock is a store round trip. The tasks run in epochs of
// E steps; between epochs, with every task parked outside any phaser, the
// main thread plants a fresh 2-cycle when one is due (at a fixed rate) and
// runs one synchronous scan, which must report exactly it.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "decorators.h"
#include "dist/store.h"
#include "layers.h"
#include "phaser/phaser.h"
#include "workloads.h"

namespace armusbench {

namespace {

constexpr armus::TaskId kPlantBase = armus::TaskId{1} << 40;

struct Sizes {
  std::size_t tasks = 3;    ///< task threads
  std::size_t epoch = 32;   ///< barrier steps per task between rendezvous
  double plants_per_s = 50;  ///< planted cycles per second
};

/// One build of the workload's state. Members are destroyed in reverse:
/// phasers before the verifier they report to, the store before the
/// server it talks to.
struct State {
  std::unique_ptr<armus::net::KvServer> server;
  std::shared_ptr<armus::net::RemoteStore> remote;
  std::unique_ptr<armus::Verifier> verifier;
  std::vector<std::shared_ptr<armus::ph::Phaser>> phasers;

  void reset() {
    phasers.clear();
    verifier.reset();
    remote.reset();
    server.reset();
  }
};

/// Epoch rendezvous of the task threads and the main thread. Waiters sleep on a
/// condition variable: std::barrier spins and yields first, which took CPU
/// time from the threads being measured.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const std::size_t parties_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace

void run_barrier_kv(const Options& options, const PhaseSpec& spec,
                    PhaseResult& result) {
  Sizes sizes;
  if (options.tiny) sizes.epoch = 8;
  const std::size_t n = sizes.tasks;

  // Written by scans, which run on this thread: how many reports, and the
  // last one.
  std::uint64_t reports = 0;
  armus::DeadlockReport last_report;
  State state;
  Meter& meter = result.meter;
  result.setup_s = timed_setups(spec, [&] {
    state.reset();
    armus::net::KvServer::Config server_config;
    server_config.io_threads = 1;
    state.server = std::make_unique<armus::net::KvServer>(server_config);
    state.server->start();
    armus::net::RemoteStore::Config client_config;
    client_config.port = state.server->port();
    client_config.backoff_seed = options.seed;
    state.remote = std::make_shared<armus::net::RemoteStore>(client_config);
    state.remote->heartbeat();
    std::shared_ptr<armus::dist::SliceStore> slices = state.remote;
    if (spec.traced) slices = std::make_shared<TimedSliceStore>(slices);
    std::shared_ptr<armus::StateStore> store =
        std::make_shared<armus::dist::SharedStore>(slices, 1);
    if (spec.traced) store = std::make_shared<TimedStateStore>(store);
    armus::VerifierConfig config;
    config.mode = armus::VerifyMode::kDetection;
    config.scanner_enabled = false;
    config.store = store;
    config.on_deadlock = [&](const armus::DeadlockReport& report) {
      ++reports;
      last_report = report;
    };
    state.verifier = std::make_unique<armus::Verifier>(config);
    for (std::size_t i = 0; i < n; ++i) {
      state.phasers.push_back(armus::ph::Phaser::create(state.verifier.get()));
    }
    for (std::size_t i = 0; i < n; ++i) {
      state.phasers[i]->register_task(i + 1, 0);
      state.phasers[(i + 1) % n]->register_task(i + 1, 0);
    }
  });

  Rendezvous sync(n + 1);
  std::atomic<bool> stop{false};
  std::atomic<bool> recording{false};
  std::atomic<std::uint64_t> store_failures{0};
  // Each task's step latencies of the current epoch; drained by the main thread
  // while the tasks are parked between epochs.
  std::vector<std::vector<double>> step_us(n);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      std::vector<std::size_t> mine = {i, (i + 1) % n};
      std::sort(mine.begin(), mine.end());
      const armus::TaskId task = i + 1;
      std::uint64_t op = 0;
      for (;;) {
        for (std::size_t s = 0; s < sizes.epoch; ++s) {
          tracing_set_op((static_cast<std::uint64_t>(task) << 48) | op++);
          const std::uint64_t start = now_ns();
          for (std::size_t p : mine) {
            try {
              Span span("phaser.advance");
              state.phasers[p]->advance(task);
            } catch (const std::exception&) {
              store_failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (recording.load(std::memory_order_relaxed)) {
            step_us[i].push_back(us_between(start, now_ns()));
          }
        }
        sync.arrive_and_wait();  // epoch done
        sync.arrive_and_wait();  // plant done
        if (stop.load()) return;
      }
    });
  }

  std::uint64_t epochs = 0;
  std::uint64_t planted = 0;
  std::uint64_t next_plant = kPlantBase;
  PlantClock plants(sizes.plants_per_s);
  NetBaseline baseline;
  armus::Verifier::Stats core_baseline;
  auto plant = [&] {
    const armus::TaskId a = next_plant++;
    const armus::TaskId b = next_plant++;
    std::vector<armus::BlockedStatus> cycle = cycle_statuses({a, b}, {a, b});
    const std::uint64_t before = reports;
    try {
      {
        Span span("core.before_block");
        state.verifier->before_block(cycle[0]);
      }
      const std::uint64_t start = now_ns();
      {
        Span span("core.before_block");
        state.verifier->before_block(cycle[1]);
      }
      state.verifier->scan_now();
      const std::uint64_t end = now_ns();
      ++planted;
      if (reports == before + 1 &&
          last_report.tasks == std::vector<armus::TaskId>{a, b}) {
        meter.detect(us_between(start, end));
      } else {
        meter.fail("planted cycle not reported exactly once");
      }
      for (armus::TaskId t : {a, b}) {
        Span span("core.after_unblock");
        state.verifier->after_unblock(t);
      }
    } catch (const std::exception& e) {
      meter.fail(std::string("plant: ") + e.what());
    }
  };

  const std::uint64_t warm_end =
      now_ns() + static_cast<std::uint64_t>(spec.warmup_s * 1e9);
  std::uint64_t end = 0;
  bool measuring = false;
  meter.set_recording(false);
  std::uint64_t epoch_start = now_ns();
  for (;;) {
    sync.arrive_and_wait();
    ++epochs;
    const std::uint64_t now = now_ns();
    meter.attempt(n * sizes.epoch);
    for (std::vector<double>& samples : step_us) {
      for (double us : samples) meter.op(us);
      samples.clear();
    }
    meter.work(static_cast<double>(n * sizes.epoch),
               static_cast<double>(now - epoch_start) / 1e9);
    if (!measuring && now >= warm_end) {
      measuring = true;
      baseline = net_baseline(*state.server, {state.remote});
      core_baseline = state.verifier->stats();
      recording.store(true);
      meter.set_recording(true);
      if (spec.traced) tracing_enable(true);
      end = now + static_cast<std::uint64_t>(spec.seconds * 1e9);
    } else if (measuring && now >= end) {
      stop.store(true);
    }
    if (!stop.load() && plants.due()) {
      meter.attempt();
      plant();
    }
    epoch_start = now_ns();
    sync.arrive_and_wait();
    if (stop.load()) break;
  }
  for (std::thread& t : threads) t.join();
  tracing_enable(false);

  for (std::uint64_t i = 0; i < store_failures.load(); ++i) {
    meter.fail("advance hit a store failure");
  }
  const armus::Phase expected_phase = epochs * sizes.epoch;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p : {i, (i + 1) % n}) {
      if (state.phasers[p]->local_phase(i + 1) != expected_phase) {
        meter.fail("task ended on the wrong phase");
      }
    }
  }
  const std::uint64_t expected = planted + (options.miscount ? 1 : 0);
  if (reports != expected) {
    meter.fail("reported " + std::to_string(reports) + " cycles, " +
               std::to_string(expected) + " planted");
  }
  if (spec.traced) {
    add_core_layer(result.layers, {state.verifier->stats()}, {core_baseline});
    add_net_layer(result.layers, *state.server, {state.remote},
                  tracing_collect(), baseline);
  }
}

}  // namespace armusbench
