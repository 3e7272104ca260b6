#include "spans.h"

#include <fstream>

namespace ledger {

int Spans::begin(const std::string& name, int parent, int run) {
  Span span;
  span.name = name;
  span.start_ms = ms_between(origin_, Clock::now());
  span.end_ms = span.start_ms;
  span.parent = parent;
  span.run = run;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms =
      ms_between(origin_, Clock::now());
}

void Spans::add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, int run) {
  Span span;
  span.name = name;
  span.start_ms = ms_between(origin_, start);
  span.end_ms = ms_between(origin_, end);
  span.parent = parent;
  span.run = run;
  spans_.push_back(std::move(span));
}

bool Spans::write(const std::string& path,
                  const std::string& fingerprint_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"fingerprint\": " << fingerprint_json << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_ms\": " << json_number(s.start_ms)
        << ", \"end_ms\": " << json_number(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace ledger
