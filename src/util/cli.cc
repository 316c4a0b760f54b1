#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace bst::util {

template <typename T>
T parse_number(const std::string& what, const std::string& text) {
  constexpr bool integral = std::is_integral_v<T>;
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  T v{};
  if constexpr (integral) {
    v = std::strtol(s, &end, 10);
  } else {
    v = std::strtod(s, &end);
  }
  if (end == s || *end != '\0') {
    throw std::runtime_error(what + ": expected " + (integral ? "an integer" : "a number") +
                             ", got '" + text + "'");
  }
  // strtol saturates on overflow; strtod returns inf or nan as asked, and
  // inf on overflow.
  if (integral ? errno == ERANGE : !std::isfinite(static_cast<double>(v))) {
    throw std::runtime_error(what + ": " + (integral ? "integer" : "number") +
                             " out of range, got '" + text + "'");
  }
  return v;
}

template long parse_number<long>(const std::string&, const std::string&);
template double parse_number<double>(const std::string&, const std::string&);

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_.emplace(std::string(arg), "1");
    } else {
      kv_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_number<long>("--" + key, it->second);
}

int Cli::get_int32(const std::string& key, int fallback) const {
  const long v = get_int(key, fallback);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    throw std::runtime_error("--" + key + ": integer out of range for int, got '" +
                             kv_.at(key) + "'");
  }
  return static_cast<int>(v);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_number<double>("--" + key, it->second);
}

bool Cli::has(const std::string& key) const { return kv_.contains(key); }

std::vector<std::string> Cli::keys() const {
  std::vector<std::string> out;
  for (const auto& kv : kv_) out.push_back(kv.first);
  return out;
}

}  // namespace bst::util
