#include "common/config.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace bdps {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void reject(const std::string& key, const std::string& value) {
  throw std::invalid_argument("bad value for " + key + ": '" + value + "'");
}

/// The whole of `text` as a double; rejects an empty parse or trailing
/// characters.
double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') reject(key, text);
  return value;
}
}  // namespace

KeyValueConfig KeyValueConfig::from_args(int argc, const char* const* argv) {
  KeyValueConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      config.positional_.push_back(token);
    } else {
      config.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
    }
  }
  return config;
}

KeyValueConfig KeyValueConfig::from_text(const std::string& text) {
  KeyValueConfig config;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      config.positional_.push_back(line);
    } else {
      config.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
  }
  return config;
}

bool KeyValueConfig::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string KeyValueConfig::get_string(const std::string& key,
                                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double KeyValueConfig::get_double(const std::string& key,
                                  double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double(key, it->second);
}

int KeyValueConfig::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    reject(key, text);
  }
  return static_cast<int>(value);
}

bool KeyValueConfig::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  reject(key, v);
}

std::vector<double> KeyValueConfig::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<double> result;
  std::istringstream in(it->second);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    result.push_back(parse_double(key, item));
  }
  return result.empty() ? fallback : result;
}

void KeyValueConfig::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace bdps
