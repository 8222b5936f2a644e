// sites_kv: Fig 7's distributed detection, driven synchronously. One thread
// drives S sites of T tasks each over at most 3 net::RemoteStore
// connections to an in-process armus-kv server; Site::start is never
// called. Each round, one seeded site flips one task between blocked and
// unblocked and publishes (a delta frame), then the checking site, which
// rotates over all sites, runs check_now. At a fixed rate a round instead
// plants a cross-site 2-cycle on fresh task ids, which that round's check
// must report, and then breaks it.
#include <algorithm>
#include <memory>
#include <vector>

#include "decorators.h"
#include "layers.h"
#include "util/rng.h"
#include "workloads.h"

namespace armusbench {

namespace {

constexpr armus::TaskId kPlantBase = armus::TaskId{1} << 40;

struct Sizes {
  std::size_t sites = 8;
  std::size_t tasks = 32;        ///< per site
  std::size_t connections = 3;
  double plants_per_s = 100;     ///< planted cycles per second
};

/// Task j of site s: a per-site chain as in avoid_local, on phasers of its
/// own, so no state of the background traffic is ever cyclic.
armus::BlockedStatus site_status(std::size_t site, std::size_t j) {
  const armus::TaskId base = static_cast<armus::TaskId>(site + 1) << 20;
  const armus::TaskId task = base + j + 1;
  const armus::PhaserUid own = base + j + 1;
  return make_status(task, own, 1, {{own, 1}, {own + 1, 0}});
}

struct Inbox {
  std::uint64_t count = 0;
  armus::DeadlockReport last;
};

struct State {
  std::unique_ptr<armus::net::KvServer> server;
  std::vector<std::shared_ptr<armus::net::RemoteStore>> clients;
  std::vector<std::unique_ptr<armus::dist::Site>> sites;
  /// Reports each site's checker delivered: how many, and the last one.
  std::vector<Inbox> inboxes;
  /// blocked[s][j]: task j of site s currently holds a blocked status.
  std::vector<std::vector<bool>> blocked;

  void reset() {
    sites.clear();
    clients.clear();
    server.reset();
  }
};

}  // namespace

void run_sites_kv(const Options& options, const PhaseSpec& spec,
                  PhaseResult& result) {
  Sizes sizes;
  if (options.tiny) sizes = Sizes{4, 32, 2};
  armus::util::Xoshiro256 rng(options.seed);

  State state;
  Meter& meter = result.meter;
  result.setup_s = timed_setups(spec, [&] {
    state.reset();
    armus::net::KvServer::Config server_config;
    server_config.io_threads = 1;
    state.server = std::make_unique<armus::net::KvServer>(server_config);
    state.server->start();
    std::vector<std::shared_ptr<armus::dist::SliceStore>> stores;
    for (std::size_t c = 0; c < sizes.connections; ++c) {
      armus::net::RemoteStore::Config client_config;
      client_config.port = state.server->port();
      client_config.backoff_seed = options.seed + c;
      auto client = std::make_shared<armus::net::RemoteStore>(client_config);
      client->heartbeat();
      state.clients.push_back(client);
      stores.push_back(client);
      if (spec.traced) stores.back() = std::make_shared<TimedSliceStore>(client);
    }
    state.inboxes.assign(sizes.sites, {});
    // Each task starts blocked with probability 1/2, the state the
    // flipping traffic keeps, so the measured rounds see no drift.
    armus::util::Xoshiro256 initial(options.seed ^ 0x5eedULL);
    state.blocked.assign(sizes.sites, std::vector<bool>(sizes.tasks));
    for (std::size_t s = 0; s < sizes.sites; ++s) {
      armus::dist::Site::Config config;
      config.id = static_cast<armus::dist::SiteId>(s + 1);
      config.on_deadlock = [&state, s](const armus::DeadlockReport& report) {
        ++state.inboxes[s].count;
        state.inboxes[s].last = report;
      };
      state.sites.push_back(std::make_unique<armus::dist::Site>(
          config, stores[s % stores.size()]));
      for (std::size_t j = 0; j < sizes.tasks; ++j) {
        state.blocked[s][j] = initial.below(2) == 1;
        if (state.blocked[s][j]) {
          state.sites[s]->verifier().before_block(site_status(s, j));
        }
      }
      state.sites[s]->publish_now();
    }
    for (auto& site : state.sites) site->check_now();
  });

  std::uint64_t next_plant = kPlantBase;
  std::uint64_t planted = 0;
  std::uint64_t found = 0;
  PlantClock plants(sizes.plants_per_s);
  NetBaseline baseline;
  std::vector<armus::dist::Site::Stats> dist_baseline;
  std::vector<armus::Verifier::Stats> core_baseline;
  auto mark_baseline = [&] {
    baseline = net_baseline(*state.server, state.clients);
    for (const auto& site : state.sites) {
      dist_baseline.push_back(site->stats());
      core_baseline.push_back(site->verifier().stats());
    }
  };
  closed_loop(spec, meter, [&](Meter& m, std::uint64_t round) {
    m.attempt();
    armus::dist::Site& checker = *state.sites[round % sizes.sites];
    Inbox& inbox = state.inboxes[round % sizes.sites];
    const std::uint64_t before = inbox.count;
    auto publish = [&](armus::dist::Site& site) {
      Span span("dist.publish");
      if (!site.publish_now()) m.fail("publish failed");
    };
    auto check = [&] {
      Span span("dist.check");
      if (!checker.check_now()) m.fail("check failed");
    };

    if (plants.due()) {
      const std::size_t x = rng.below(sizes.sites);
      const std::size_t y = (x + 1 + rng.below(sizes.sites - 1)) % sizes.sites;
      const armus::TaskId a = next_plant++;
      const armus::TaskId b = next_plant++;
      std::vector<armus::BlockedStatus> cycle = cycle_statuses({a, b}, {a, b});
      ++planted;
      {
        Span span("core.before_block");
        state.sites[x]->verifier().before_block(cycle[0]);
      }
      publish(*state.sites[x]);
      const std::uint64_t start = now_ns();
      {
        Span span("core.before_block");
        state.sites[y]->verifier().before_block(cycle[1]);
      }
      publish(*state.sites[y]);
      check();
      const std::uint64_t end = now_ns();
      if (inbox.count == before + 1 &&
          inbox.last.tasks == std::vector<armus::TaskId>{a, b}) {
        ++found;
        m.detect(us_between(start, end));
      } else {
        m.fail("planted cycle not reported in its round");
      }
      state.sites[x]->verifier().after_unblock(a);
      state.sites[y]->verifier().after_unblock(b);
      publish(*state.sites[x]);
      publish(*state.sites[y]);
      return 1.0;
    }

    const std::size_t s = rng.below(sizes.sites);
    const std::size_t j = rng.below(sizes.tasks);
    armus::dist::Site& site = *state.sites[s];
    const std::uint64_t start = now_ns();
    if (state.blocked[s][j]) {
      Span span("core.after_unblock");
      site.verifier().after_unblock(site_status(s, j).task);
    } else {
      Span span("core.before_block");
      site.verifier().before_block(site_status(s, j));
    }
    state.blocked[s][j] = !state.blocked[s][j];
    publish(site);
    check();
    m.op(us_between(start, now_ns()));
    if (inbox.count != before) m.fail("false report");
    return 1.0;
  }, mark_baseline);

  std::vector<armus::dist::Site::Stats> stats;
  std::vector<armus::Verifier::Stats> verifier_stats;
  std::uint64_t reports = 0;
  for (std::size_t s = 0; s < sizes.sites; ++s) {
    stats.push_back(state.sites[s]->stats());
    verifier_stats.push_back(state.sites[s]->verifier().stats());
    reports += state.inboxes[s].count;
  }
  const std::uint64_t expected = planted + (options.miscount ? 1 : 0);
  if (found != expected || reports != expected) {
    meter.fail("found " + std::to_string(found) + " of " +
               std::to_string(expected) + " planted cycles (" +
               std::to_string(reports) + " reports)");
  }
  armus::net::KvServer::Stats server = state.server->stats();
  std::uint64_t store_failures = 0;
  for (const auto& s : stats) store_failures += s.store_failures;
  if (store_failures != 0 || server.errors != 0 ||
      server.dropped_backpressure + server.dropped_idle +
              server.dropped_protocol !=
          0) {
    meter.fail("store failures, server errors or dropped connections");
  }
  if (spec.traced) {
    add_core_layer(result.layers, verifier_stats, core_baseline);
    add_dist_layer(result.layers, stats, dist_baseline);
    add_net_layer(result.layers, *state.server, state.clients,
                  tracing_collect(), baseline);
  }
}

}  // namespace armusbench
