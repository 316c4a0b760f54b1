// Tiny --key=value command line parser for the bench/example binaries.
#pragma once

#include <map>
#include <string>

namespace bst::util {

/// Parses all of `text` as a T (long or double).  An empty value or
/// trailing garbage throws std::runtime_error naming `what` -- a flag such
/// as "--np" or an environment variable such as "BST_PCG_TOL" -- instead of
/// silently truncating to the leading digits.  The one numeric parser of
/// both command lines and BST_* variables.
template <typename T>
T parse_number(const std::string& what, const std::string& text);

/// Parses arguments of the form --key=value (or bare --flag => "1").
/// Unrecognized positional arguments are ignored.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// Returns the value for `key`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric accessors parse the *whole* value (parse_number): trailing
  /// garbage (`--np=4x`, `--panel=8q`) throws naming the flag.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace bst::util
