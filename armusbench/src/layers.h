#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/verifier.h"
#include "dist/site.h"
#include "net/kv_server.h"
#include "net/remote_store.h"

/// Program counters of the traced run, read only through public accessors
/// and written into the per-layer sheet under `<module>.<what>`.
namespace armusbench {

/// core.*: Verifier::Stats summed over `now`, less the sums over `since`
/// (the same verifiers' counters as measuring started).
void add_core_layer(Metrics& layers,
                    const std::vector<armus::Verifier::Stats>& now,
                    const std::vector<armus::Verifier::Stats>& since);

/// dist.*: Site::Stats summed over `now`, less the sums over `since`.
void add_dist_layer(Metrics& layers,
                    const std::vector<armus::dist::Site::Stats>& now,
                    const std::vector<armus::dist::Site::Stats>& since);

/// The net counters as measuring starts, so that net.* covers the measured
/// ops and not the set-up or warm-up traffic.
struct NetBaseline {
  armus::net::KvServer::Stats server;
  std::string server_json;  ///< KvServer::stats_json()
  std::uint64_t client_failures = 0;
};

NetBaseline net_baseline(
    const armus::net::KvServer& server,
    const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients);

/// net.*: server counters and per-opcode histograms (KvServer::stats and
/// stats_json), client failures (RemoteStore::stats), and the wire time
/// left when the server's handling time is taken out of the client spans,
/// all since `since`.
void add_net_layer(
    Metrics& layers, const armus::net::KvServer& server,
    const std::vector<std::shared_ptr<armus::net::RemoteStore>>& clients,
    const std::map<std::string, SpanSamples>& spans, const NetBaseline& since);

/// Blocked status of a task waiting on (`wait`, `phase`) with the given
/// registrations.
armus::BlockedStatus make_status(armus::TaskId task, armus::PhaserUid wait,
                                 armus::Phase phase,
                                 std::vector<armus::RegEntry> registered);

/// A planted cycle: task i waits on (phasers[i], 1) and still impedes
/// (phasers[i+1 mod n], 1). Publishing all of them closes the cycle.
std::vector<armus::BlockedStatus> cycle_statuses(
    const std::vector<armus::TaskId>& tasks,
    const std::vector<armus::PhaserUid>& phasers);

}  // namespace armusbench
