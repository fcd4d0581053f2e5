// In-memory span recorder for the benchmark's traced runs.
//
// A span is a named interval around one call into a layer of the library,
// made from the benchmark's own code. Each thread keeps its own buffer and
// stack of open spans, so a span's parent is the span open on the same
// thread when it started. Spans are only aggregated and written out after
// the measured work is over.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same thread's buffer, -1 = root
  std::uint64_t op = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;  // summed duration
  double self_us = 0;   // summed duration minus time covered by children
};

class Tracer {
 public:
  // Spans are recorded only while enabled; ScopedSpan is a no-op otherwise.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Begin(const char* name, std::uint64_t op) {
    Buffer& b = Local();
    Span s;
    s.name = name;
    s.op = op;
    s.parent = b.stack.empty() ? -1 : b.stack.back();
    s.start_ns = NowNs();
    b.spans.push_back(s);
    b.stack.push_back(static_cast<int>(b.spans.size()) - 1);
    return b.stack.back();
  }

  void End(int index) {
    Buffer& b = Local();
    b.spans[index].end_ns = NowNs();
    b.stack.pop_back();
  }

  // Per-name totals with self time (children's covered time subtracted).
  std::map<std::string, SpanTotals> Totals() const {
    std::map<std::string, SpanTotals> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      std::vector<double> child_us(b->spans.size(), 0.0);
      for (const Span& s : b->spans) {
        if (s.parent >= 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
      }
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Span& s = b->spans[i];
        SpanTotals& t = out[s.name];
        const double dur = (s.end_ns - s.start_ns) / 1e3;
        ++t.count;
        t.total_us += dur;
        t.self_us += dur - child_us[i];
      }
    }
    return out;
  }

  // One line per span: thread, index, parent, op, name, start, end (ns).
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "thread\tindex\tparent\top\tname\tstart_ns\tend_ns\n";
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      const auto& spans = buffers_[t]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << t << '\t' << i << '\t' << s.parent << '\t' << s.op << '\t'
            << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
      }
    }
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int> stack;
  };

  Buffer& Local() {
    thread_local Buffer* local = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (local == nullptr || owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
      owner = this;
    }
    return *local;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
