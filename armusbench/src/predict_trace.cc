// predict_trace: offline prediction over a recorded trace. Set-up records a
// seeded trace through a single-threaded Verifier + trace::Recorder: benign
// chain traffic (M tasks re-blocking over G generations, every release
// explained by the releasing task's newer registration) with L planted
// late-phased-join latent deadlocks (tests/predict_test.cc shows the
// pattern), none of which the observed schedule ever reaches. An op decodes
// the in-memory trace and runs the Predictor; the L predictions must be
// exactly the planted pairs, and each witness must replay through
// OfflineVerifier to the same cycle. Witness confirmation is the
// workload's detection latency.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <unistd.h>
#include <vector>

#include "layers.h"
#include "predict/predictor.h"
#include "trace/format.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "util/rng.h"
#include "workloads.h"

namespace armusbench {

namespace {

constexpr armus::TaskId kPlantBase = armus::TaskId{1} << 40;

struct Sizes {
  std::size_t chain = 16;        ///< M chain tasks
  std::size_t generations = 12;  ///< G re-blocks per chain task
  std::size_t latent = 6;        ///< L planted latent deadlocks
};

/// Chain task i in generation g: waits on (p_i, g+1), impedes (p_{i+1},
/// g+1). Task i's release in generation g is explained by task i-1's
/// generation g+1 status, which is published first.
armus::BlockedStatus chain_status(std::size_t i, std::size_t g) {
  const armus::TaskId task = i + 1;
  const armus::PhaserUid own = i + 1;
  return make_status(task, own, g + 1, {{own, g + 1}, {own + 1, g}});
}

struct Recording {
  std::string bytes;
  std::uint64_t records = 0;
  double seconds = 0;
  std::set<std::vector<armus::TaskId>> planted;
};

Recording record_trace(const Sizes& sizes, std::uint64_t seed,
                       const std::string& path) {
  armus::util::Xoshiro256 rng(seed);
  // Latent pair k is planted after chain step at[k] (seeded, distinct).
  const std::size_t steps = sizes.chain * sizes.generations;
  std::set<std::size_t> at;
  while (at.size() < sizes.latent) at.insert(rng.below(steps));

  Recording out;
  const std::uint64_t start = now_ns();
  {
    auto recorder = std::make_shared<armus::trace::Recorder>(
        armus::trace::Recorder::Options{path, {}});
    armus::VerifierConfig config;
    config.mode = armus::VerifyMode::kDetection;
    config.scanner_enabled = false;
    config.on_deadlock = [](const armus::DeadlockReport&) {};
    config.observer = recorder;
    armus::Verifier verifier(config);

    for (std::size_t i = 0; i < sizes.chain; ++i) {
      verifier.before_block(chain_status(i, 0));
    }
    verifier.scan_now();
    armus::TaskId next = kPlantBase;
    std::size_t step = 0;
    for (std::size_t g = 0; g < sizes.generations; ++g) {
      for (std::size_t i = 0; i < sizes.chain; ++i, ++step) {
        verifier.after_unblock(i + 1);
        verifier.before_block(chain_status(i, g + 1));
        if (at.count(step) == 0) continue;
        // The late-phased join: a and b each register on both phasers, but
        // a's wait completes before b publishes, so no observed state holds
        // both — a reordering that lets b block first deadlocks.
        const armus::TaskId a = next++;
        const armus::TaskId b = next++;
        const armus::PhaserUid pa = a;
        const armus::PhaserUid pb = b;
        verifier.before_block(make_status(a, pa, 1, {{pa, 1}, {pb, 0}}));
        verifier.scan_now();
        verifier.after_unblock(a);
        verifier.before_block(make_status(b, pb, 1, {{pa, 0}, {pb, 1}}));
        verifier.scan_now();
        verifier.after_unblock(b);
        out.planted.insert({a, b});
      }
      verifier.scan_now();
    }
    if (!verifier.reported().empty()) {
      throw std::runtime_error("the recorded schedule deadlocked");
    }
    recorder->flush();
    out.records = recorder->records_written();
  }
  out.seconds = static_cast<double>(now_ns() - start) / 1e9;
  std::ifstream in(path, std::ios::binary);
  out.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return out;
}

/// A prediction's witness as trace bytes (header + records, deltas from
/// the records' own timestamps).
std::string witness_bytes(const armus::predict::Prediction& prediction) {
  armus::trace::TraceHeader header;
  header.start_ns =
      prediction.witness.empty() ? 0 : prediction.witness.front().at_ns;
  std::string out = armus::trace::encode_header(header);
  std::uint64_t previous = header.start_ns;
  for (const armus::trace::Record& record : prediction.witness) {
    const std::uint64_t at = std::max(previous, record.at_ns);
    armus::trace::append_record(out, record, at - previous);
    previous = at;
  }
  return out;
}

}  // namespace

void run_predict_trace(const Options& options, const PhaseSpec& spec,
                       PhaseResult& result) {
  Sizes sizes;
  if (options.tiny) sizes = Sizes{4, 4, 2};
  const std::string path = options.scratch_dir + "/predict-" +
                           std::to_string(::getpid()) + ".trace";

  Recording recording;
  result.setup_s = timed_setups(spec, [&] {
    recording = record_trace(sizes, options.seed, path);
  });

  Meter& meter = result.meter;
  const std::size_t expected = sizes.latent + (options.miscount ? 1 : 0);
  armus::predict::Predictor::Result last;
  closed_loop(spec, meter, [&](Meter& m, std::uint64_t) {
    m.attempt();
    const std::uint64_t start = now_ns();
    armus::predict::Predictor::Result predicted;
    {
      std::unique_ptr<armus::trace::MergedTrace> trace;
      {
        Span span("trace.decode");
        trace = std::make_unique<armus::trace::MergedTrace>(
            armus::trace::MergedTrace::from_bytes({recording.bytes}));
      }
      Span span("predict.run");
      predicted = armus::predict::Predictor({}).run(*trace);
    }
    m.op(us_between(start, now_ns()));

    if (!predicted.observed.empty() || !predicted.replayed.empty()) {
      m.fail("the observed schedule reports a deadlock");
    }
    std::set<std::vector<armus::TaskId>> found;
    for (const armus::predict::Prediction& prediction : predicted.predictions) {
      if (prediction.novel) found.insert(prediction.report.tasks);
      const std::string bytes = witness_bytes(prediction);
      const std::uint64_t replay_start = now_ns();
      armus::trace::OfflineVerifier::Result replayed;
      {
        Span span("trace.replay");
        replayed = armus::trace::OfflineVerifier({}).run(
            armus::trace::MergedTrace::from_bytes({bytes}));
      }
      m.detect(us_between(replay_start, now_ns()));
      // The cut may hold other planted pairs too (they are real in that
      // schedule); it must hold this one and nothing unplanted.
      bool reproduced = false;
      for (const armus::DeadlockReport& report : replayed.replayed) {
        reproduced |= report.fingerprint() == prediction.report.fingerprint();
        if (recording.planted.count(report.tasks) == 0) {
          m.fail("a witness replays to an unplanted cycle");
        }
      }
      if (!reproduced) m.fail("a witness does not replay to its cycle");
    }
    if (predicted.novel_count() != expected ||
        predicted.predictions.size() != expected ||
        found != recording.planted) {
      m.fail("predicted " + std::to_string(predicted.novel_count()) +
             " latent cycles, " + std::to_string(expected) + " planted");
    }
    last = std::move(predicted);
    return static_cast<double>(recording.records);
  });

  if (spec.traced) {
    Metrics& layers = result.layers;
    layers.set("trace.record_per_s",
               static_cast<double>(recording.records) / recording.seconds);
    layers.set("trace.records", static_cast<double>(recording.records));
    layers.set("trace.bytes", static_cast<double>(recording.bytes.size()));
    layers.set("predict.anchors_tried",
               static_cast<double>(last.anchors_tried));
    layers.set("predict.cuts_checked", static_cast<double>(last.cuts_checked));
    layers.set("predict.novel", static_cast<double>(last.novel_count()));
    layers.set("predict.novel_per_cut",
               last.cuts_checked == 0
                   ? 0.0
                   : static_cast<double>(last.novel_count()) /
                         static_cast<double>(last.cuts_checked));
  }
}

}  // namespace armusbench
