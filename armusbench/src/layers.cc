#include "layers.h"

#include <cstdlib>
#include <string>

namespace armusbench {

namespace {

/// Reads `"<key>":{... "<field>":<number>` out of a registry JSON snapshot;
/// 0 when the histogram is absent (the opcode was never served).
double histogram_field(const std::string& json, const std::string& key,
                       const std::string& field) {
  std::size_t at = json.find("\"" + key + "\":{");
  if (at == std::string::npos) return 0.0;
  std::size_t end = json.find('}', at);
  std::size_t pos = json.find("\"" + field + "\":", at);
  if (pos == std::string::npos || pos > end) return 0.0;
  return std::strtod(json.c_str() + pos + field.size() + 3, nullptr);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

armus::Verifier::Stats sum_core(
    const std::vector<armus::Verifier::Stats>& stats) {
  armus::Verifier::Stats sum;
  for (const armus::Verifier::Stats& s : stats) {
    sum.checks += s.checks;
    sum.graphs_built += s.graphs_built;
    sum.incremental_applies += s.incremental_applies;
    sum.full_rebuilds += s.full_rebuilds;
    sum.total_edges += s.total_edges;
    sum.avoidance_interrupts += s.avoidance_interrupts;
  }
  return sum;
}

armus::dist::Site::Stats sum_dist(
    const std::vector<armus::dist::Site::Stats>& sites) {
  armus::dist::Site::Stats sum;
  for (const armus::dist::Site::Stats& s : sites) {
    sum.publishes += s.publishes;
    sum.publishes_skipped += s.publishes_skipped;
    sum.delta_publishes += s.delta_publishes;
    sum.checks += s.checks;
    sum.checks_skipped += s.checks_skipped;
    sum.slices_fetched += s.slices_fetched;
    sum.store_failures += s.store_failures;
  }
  return sum;
}

}  // namespace

void add_core_layer(Metrics& layers,
                    const std::vector<armus::Verifier::Stats>& now,
                    const std::vector<armus::Verifier::Stats>& since) {
  const armus::Verifier::Stats a = sum_core(now);
  const armus::Verifier::Stats b = sum_core(since);
  armus::Verifier::Stats d;
  d.checks = a.checks - b.checks;
  d.graphs_built = a.graphs_built - b.graphs_built;
  d.incremental_applies = a.incremental_applies - b.incremental_applies;
  d.full_rebuilds = a.full_rebuilds - b.full_rebuilds;
  d.total_edges = a.total_edges - b.total_edges;
  d.avoidance_interrupts = a.avoidance_interrupts - b.avoidance_interrupts;
  auto count = [&](const char* name, std::uint64_t value) {
    layers.set(name, static_cast<double>(value));
  };
  count("core.checks", d.checks);
  count("core.graphs_built", d.graphs_built);
  count("core.incremental_applies", d.incremental_applies);
  count("core.full_rebuilds", d.full_rebuilds);
  count("core.avoidance_interrupts", d.avoidance_interrupts);
  layers.set("core.incremental_ratio",
             ratio(static_cast<double>(d.incremental_applies),
                   static_cast<double>(d.incremental_applies +
                                       d.full_rebuilds)));
  layers.set("core.mean_edges", d.mean_edges());
}

void add_dist_layer(Metrics& layers,
                    const std::vector<armus::dist::Site::Stats>& now,
                    const std::vector<armus::dist::Site::Stats>& since) {
  const armus::dist::Site::Stats a = sum_dist(now);
  const armus::dist::Site::Stats b = sum_dist(since);
  armus::dist::Site::Stats d;
  d.publishes = a.publishes - b.publishes;
  d.publishes_skipped = a.publishes_skipped - b.publishes_skipped;
  d.delta_publishes = a.delta_publishes - b.delta_publishes;
  d.checks = a.checks - b.checks;
  d.checks_skipped = a.checks_skipped - b.checks_skipped;
  d.slices_fetched = a.slices_fetched - b.slices_fetched;
  d.store_failures = a.store_failures - b.store_failures;
  auto count = [&](const char* name, std::uint64_t value) {
    layers.set(name, static_cast<double>(value));
  };
  count("dist.publishes", d.publishes);
  count("dist.publishes_skipped", d.publishes_skipped);
  count("dist.delta_publishes", d.delta_publishes);
  count("dist.checks_skipped", d.checks_skipped);
  count("dist.slices_fetched", d.slices_fetched);
  count("dist.store_failures", d.store_failures);
  layers.set("dist.delta_ratio",
             ratio(static_cast<double>(d.delta_publishes),
                   static_cast<double>(d.publishes)));
  layers.set("dist.slices_per_check",
             ratio(static_cast<double>(d.slices_fetched),
                   static_cast<double>(d.checks)));
}

NetBaseline net_baseline(
    const armus::net::KvServer& server,
    const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients) {
  NetBaseline out;
  out.server = server.stats();
  out.server_json = server.stats_json();
  for (const auto& client : clients) {
    out.client_failures += client->stats().failures;
  }
  return out;
}

void add_net_layer(
    Metrics& layers, const armus::net::KvServer& server,
    const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients,
    const std::map<std::string, SpanSamples>& spans, const NetBaseline& since) {
  const NetBaseline now = net_baseline(server, clients);
  auto dropped = [](const armus::net::KvServer::Stats& s) {
    return s.dropped_backpressure + s.dropped_idle + s.dropped_protocol;
  };
  auto count = [&](const char* name, std::uint64_t value) {
    layers.set(name, static_cast<double>(value));
  };
  count("net.requests", now.server.requests - since.server.requests);
  count("net.errors", now.server.errors - since.server.errors);
  count("net.dropped", dropped(now.server) - dropped(since.server));
  count("net.client_failures", now.client_failures - since.client_failures);

  // Per opcode: the server's handling time (power-of-two histogram p50;
  // count and exact mean since `since`), and the client spans' mean minus
  // the server's mean as the time spent outside the server's handler. A
  // mean of the difference is the difference of the means; a p50 of it
  // would need each client span paired with its server sample.
  double wire_sum = 0;
  double wire_count = 0;
  for (const char* op : {"put_slice", "put_slice_delta", "list_slices_since"}) {
    const std::string key = std::string("kv.op.") + op + ".latency_us";
    const std::string name = std::string("net.server.") + op + "_us";
    const double count_now = histogram_field(now.server_json, key, "count");
    const double count_then = histogram_field(since.server_json, key, "count");
    const double served = count_now - count_then;
    layers.set(name + ".p50", histogram_field(now.server_json, key, "p50"));
    layers.set(name + ".n", served);
    auto it = spans.find(std::string("net.client.") + op);
    if (it == spans.end() || it->second.total_us.empty() || served <= 0) {
      continue;
    }
    const double server_mean =
        (histogram_field(now.server_json, key, "mean") * count_now -
         histogram_field(since.server_json, key, "mean") * count_then) /
        served;
    double client_sum = 0;
    for (double us : it->second.total_us) client_sum += us;
    const double n = static_cast<double>(it->second.total_us.size());
    wire_sum += client_sum - n * server_mean;
    wire_count += n;
  }
  layers.set("net.wire_us.mean", ratio(wire_sum, wire_count));
  layers.set("net.wire_us.n", wire_count);
}

armus::BlockedStatus make_status(armus::TaskId task, armus::PhaserUid wait,
                                 armus::Phase phase,
                                 std::vector<armus::RegEntry> registered) {
  armus::BlockedStatus status;
  status.task = task;
  status.waits = {armus::Resource{wait, phase}};
  status.registered = std::move(registered);
  return status;
}

std::vector<armus::BlockedStatus> cycle_statuses(
    const std::vector<armus::TaskId>& tasks,
    const std::vector<armus::PhaserUid>& phasers) {
  std::vector<armus::BlockedStatus> out;
  const std::size_t n = tasks.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_status(tasks[i], phasers[i], 1,
                              {{phasers[i], 1}, {phasers[(i + 1) % n], 0}}));
  }
  return out;
}

}  // namespace armusbench
