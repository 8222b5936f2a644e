#include "bench.h"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

namespace armusbench {

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, value] : other.values_) values_[name] = value;
}

std::string Metrics::json() const {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << (std::isfinite(value) ? value : 0.0);
  }
  out << '}';
  return out.str();
}

double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double percentile(const Reservoir& samples, double p) {
  std::vector<double> values = samples.samples();
  return percentile(values, p);
}

void Reservoir::add(double value) {
  const std::uint64_t seen = count_++;
  if (seen < slots_.size()) {
    slots_[seen] = value;
    return;
  }
  // splitmix64 step; keep `value` with probability capacity / count.
  rng_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = rng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t slot = z % count_;
  if (slot < slots_.size()) slots_[slot] = value;
}

std::vector<double> Reservoir::samples() const {
  const auto kept = static_cast<std::size_t>(
      std::min<std::uint64_t>(count_, slots_.size()));
  return std::vector<double>(slots_.begin(),
                             slots_.begin() + static_cast<std::ptrdiff_t>(kept));
}

void pin_next_cpu() {
  // The CPUs this process may use, read once, before any pin narrows them.
  static std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);  // "." and ".." read as 0
    if (tid > 0) sched_setaffinity(tid, sizeof(one), &one);
  }
  closedir(dir);
}

Meter::Window& Meter::open_window() {
  if (windows_.empty()) windows_.emplace_back();
  return windows_.back();
}

void Meter::op(double us) {
  if (!recording_) return;
  op_us_.add(us);
  open_window().ops.add(us);
}

void Meter::detect(double us) {
  if (!recording_) return;
  detect_us_.add(us);
  open_window().detects.add(us);
}

void Meter::work(double units, double seconds) {
  if (!recording_) return;
  Window& window = open_window();
  window.units += units;
  window.seconds += seconds;
  if (window.seconds >= window_s_) {
    windows_.emplace_back();
    pin_next_cpu();
  }
}

void Meter::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 5) std::cerr << "armusbench: gate failed: " << why << '\n';
}

std::vector<const Meter::Window*> Meter::calm() const {
  std::vector<const Window*> closed;
  for (const Window& window : windows_) {
    if (window.seconds >= window_s_) closed.push_back(&window);
  }
  if (closed.empty()) {
    if (!windows_.empty() && windows_.back().seconds > 0) {
      closed.push_back(&windows_.back());
    }
    return closed;
  }
  std::sort(closed.begin(), closed.end(), [](const Window* a, const Window* b) {
    return a->units / a->seconds > b->units / b->seconds;
  });
  closed.resize(std::max<std::size_t>(1, closed.size() / 5));
  return closed;
}

double Meter::rate() const {
  double units = 0;
  double seconds = 0;
  for (const Window* window : calm()) {
    units += window->units;
    seconds += window->seconds;
  }
  return seconds == 0 ? 0.0 : units / seconds;
}

double Meter::calm_median(Reservoir Window::*stream) const {
  std::vector<double> pooled;
  for (const Window* window : calm()) {
    std::vector<double> kept = (window->*stream).samples();
    pooled.insert(pooled.end(), kept.begin(), kept.end());
  }
  return percentile(pooled, 50);
}

double Meter::op_p50() const { return calm_median(&Window::ops); }

double Meter::detect_p50() const { return calm_median(&Window::detects); }

// --- Tracing ---------------------------------------------------------------

namespace {

constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

struct Frame {
  std::size_t index = 0;
  std::uint64_t child_ns = 0;
};

struct ThreadBuffer {
  std::size_t thread = 0;
  std::uint64_t op = 0;
  std::vector<SpanRecord> spans;
  std::vector<Frame> open;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};

// Buffers outlive their threads (barrier_kv's task threads exit before the
// spans are collected), so the registry owns them.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    mine = g_buffers.back().get();
    mine->thread = g_buffers.size() - 1;
    mine->spans.reserve(1 << 16);
  }
  return *mine;
}

}  // namespace

void tracing_enable(bool on) { g_enabled.store(on, std::memory_order_release); }

bool tracing_enabled() { return g_enabled.load(std::memory_order_acquire); }

void tracing_set_op(std::uint64_t op) {
  if (tracing_enabled()) thread_buffer().op = op;
}

Span::Span(const char* name) {
  if (!tracing_enabled()) return;
  ThreadBuffer& buffer = thread_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    ++buffer.dropped;
    return;
  }
  SpanRecord record;
  record.name = name;
  record.parent = buffer.open.empty()
                      ? -1
                      : static_cast<std::int64_t>(buffer.open.back().index);
  record.op = buffer.op;
  buffer.open.push_back(Frame{buffer.spans.size(), 0});
  buffer.spans.push_back(record);
  active_ = true;
  buffer.spans.back().start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  std::uint64_t end = now_ns();
  ThreadBuffer& buffer = thread_buffer();
  Frame frame = buffer.open.back();
  buffer.open.pop_back();
  SpanRecord& record = buffer.spans[frame.index];
  record.end_ns = end;
  std::uint64_t total = end - record.start_ns;
  record.self_ns = total > frame.child_ns ? total - frame.child_ns : 0;
  if (!buffer.open.empty()) buffer.open.back().child_ns += total;
}

std::map<std::string, SpanSamples> tracing_collect() {
  std::map<std::string, SpanSamples> out;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.end_ns == 0) continue;  // still open
      SpanSamples& samples = out[span.name];
      samples.total_us.push_back(us_between(span.start_ns, span.end_ns));
      samples.self_us.push_back(static_cast<double>(span.self_ns) / 1000.0);
    }
  }
  return out;
}

std::uint64_t tracing_dropped() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::uint64_t dropped = 0;
  for (const auto& buffer : g_buffers) dropped += buffer->dropped;
  return dropped;
}

bool tracing_write(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("thread,index,name,parent,op,start_ns,end_ns,self_ns\n", file);
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& s = buffer->spans[i];
      std::fprintf(file, "%zu,%zu,%s,%lld,%llu,%llu,%llu,%llu\n",
                   buffer->thread, i, s.name,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.self_ns));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace armusbench
