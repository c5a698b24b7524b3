#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};

struct Record {
  const char* name = nullptr;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  ///< Index into the same thread's buffer.
  std::uint64_t id = 0;
};

struct ThreadBuf {
  int thread = 0;
  std::vector<Record> spans;
  std::vector<int> stack;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // Outlive their threads.

std::int64_t nowNs() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ThreadBuf& localBuf() {
  thread_local ThreadBuf* buf = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->thread = static_cast<int>(g_bufs.size() - 1);
    g_bufs.back()->spans.reserve(1 << 14);
    return g_bufs.back().get();
  }();
  return *buf;
}

std::string pathOf(const ThreadBuf& b, int i) {
  std::string path = b.spans[static_cast<std::size_t>(i)].name;
  for (int p = b.spans[static_cast<std::size_t>(i)].parent; p >= 0;
       p = b.spans[static_cast<std::size_t>(p)].parent) {
    path = std::string(b.spans[static_cast<std::size_t>(p)].name) + "/" + path;
  }
  return path;
}

}  // namespace

void setEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t id) {
  if (!enabled()) return;
  ThreadBuf& b = localBuf();
  index_ = static_cast<int>(b.spans.size());
  b.spans.push_back({name, nowNs(), 0, b.stack.empty() ? -1 : b.stack.back(), id});
  b.stack.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuf& b = localBuf();
  b.spans[static_cast<std::size_t>(index_)].endNs = nowNs();
  b.stack.pop_back();
}

std::vector<SelfTime> selfTimes() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SelfTime> byName;
  for (const auto& b : g_bufs) {
    std::vector<std::int64_t> childNs(b->spans.size(), 0);
    for (const auto& s : b->spans) {
      if (s.parent >= 0) childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const auto& s = b->spans[i];
      auto& t = byName[s.name];
      t.name = s.name;
      ++t.count;
      t.totalMs += static_cast<double>(s.endNs - s.startNs) * 1e-6;
      t.selfMs += static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-6;
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : byName) out.push_back(t);
  return out;
}

std::vector<hybrid::obs::SpanData> spanTree() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, hybrid::obs::SpanData> byPath;
  for (const auto& b : g_bufs) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const auto& s = b->spans[i];
      const std::string path = "perfbench/" + pathOf(*b, static_cast<int>(i));
      auto& d = byPath[path];
      d.path = path;
      ++d.count;
      d.totalNs += static_cast<std::uint64_t>(s.endNs - s.startNs);
    }
  }
  std::vector<hybrid::obs::SpanData> out;
  for (auto& [path, d] : byPath) out.push_back(d);
  return out;
}

bool writeSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  // Parents are written as global line numbers: each thread's block
  // starts where the previous thread's ended.
  std::size_t base = 0;
  for (const auto& b : g_bufs) {
    for (const auto& s : b->spans) {
      const long parent = s.parent < 0 ? -1 : static_cast<long>(base) + s.parent;
      std::fprintf(f,
                   "{\"thread\": %d, \"id\": %llu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %ld}\n",
                   b->thread, static_cast<unsigned long long>(s.id), s.name,
                   static_cast<long long>(s.startNs), static_cast<long long>(s.endNs), parent);
    }
    base += b->spans.size();
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
