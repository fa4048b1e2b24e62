// Benchmark-side spans.
//
// The benchmark times each layer from outside, around the calls it makes
// into that layer's public functions. Spans are kept in memory on the
// thread that drives the replica and written out when the run ends; the
// program's own spans (obs::export_chrome_trace_json) are written beside
// them and aligned through an anchor span recorded into the program's ring
// at the start of each phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace elbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = nullptr;  // string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;             // index into SpanLog::spans, -1 = root
  std::int64_t id = -1;        // batch or request id
};

/// Single-threaded span recorder for one traced phase.
class SpanLog {
 public:
  /// Clears the program's trace rings, turns program tracing on and records
  /// the anchor: the program exports timestamps relative to its earliest
  /// retained span, so the anchor (the first span after the clear) fixes
  /// the common origin. Producer threads must be quiescent.
  void begin_phase() {
    spans_.clear();
    stack_.clear();
    elrec::obs::clear_trace();
    elrec::obs::set_trace_enabled(true);
    anchor_ns_ = now_ns();
    { elrec::obs::TraceSpan anchor("elbench.anchor"); }
  }

  int open(const char* name, std::int64_t id) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id >= 0 || s.parent < 0 ? id : spans_[s.parent].id;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::uint64_t anchor_ns() const { return anchor_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint64_t anchor_ns_ = 0;
};

/// The log the current thread records into; null everywhere except on the
/// thread driving a traced replica, so decorated tables called from
/// scheduler workers pass straight through.
inline thread_local SpanLog* t_span_log = nullptr;

/// RAII span on the current thread's log; a no-op when there is none.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t id = -1)
      : log_(t_span_log), idx_(log_ != nullptr ? log_->open(name, id) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(idx_);
  }

 private:
  SpanLog* log_;
  int idx_;
};

}  // namespace elbench
