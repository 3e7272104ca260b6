// In-memory spans around the benchmark's own calls into each layer.
//
// A span records its name, start, end (ms since the recorder was made),
// the span that caused it and the run it belongs to.  Spans stay in memory
// and are written once, at exit, so recording costs no I/O while timing.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace ledger {

class Spans {
 public:
  static constexpr int kNoParent = -1;

  Spans() : origin_(Clock::now()) {}

  /// Opens a span; returns its id.
  int begin(const std::string& name, int parent, int run);
  void end(int id);
  /// Records an already-measured interval.
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent, int run);

  std::size_t size() const { return spans_.size(); }

  /// Writes {"fingerprint": ..., "spans": [...]}; returns false on I/O error.
  bool write(const std::string& path, const std::string& fingerprint_json) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = kNoParent;
    int run = 0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name, int parent, int run)
      : spans_(spans), id_(spans.begin(name, parent, run)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

}  // namespace ledger
