// Tiny "key=value" configuration parser.
//
// The bench binaries accept overrides like `rate=12 seed=7 out=fig5.csv` on
// the command line so sweeps can be re-run without recompiling; this class
// is the shared argv/text parser behind that.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bdps {

class KeyValueConfig {
 public:
  KeyValueConfig() = default;

  /// Parses `key=value` tokens from argv (skipping argv[0]).  Tokens without
  /// '=' are collected as positional arguments.
  static KeyValueConfig from_args(int argc, const char* const* argv);

  /// Parses newline-separated `key=value` text ('#' starts a comment).
  static KeyValueConfig from_text(const std::string& text);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// The typed getters return `fallback` when `key` is absent and throw
  /// std::invalid_argument("bad value for <key>: '<value>'") when its value
  /// does not parse whole (empty, trailing characters, an int out of range,
  /// a bool spelt other than 1/0, true/false, yes/no, on/off).
  double get_double(const std::string& key, double fallback) const;
  int get_int(const std::string& key, int fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Parses "1,2,5" style lists (empty items skipped; `fallback` when no
  /// item is left).  Throws like get_double on an item that does not parse.
  std::vector<double> get_double_list(const std::string& key,
                                      const std::vector<double>& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  void set(const std::string& key, const std::string& value);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bdps
