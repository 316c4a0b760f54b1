// The one reader of the BST_* environment variables.
//
// Every variable the program reads is declared once, in a constant table
// (env.cc): its name, its type and the values it accepts.  Modules read
// their settings with env::read(name, field), which
//
//   * reads the environment at call time (tests setenv() and read again);
//   * treats an empty value as unset, leaving `field` untouched;
//   * rejects any set BST_* name the table does not declare; and
//   * throws std::runtime_error naming the variable and its accepted range
//     for a value it cannot take.
//
// Switches take only `0` or `1`.  Defaults stay in each module's options
// struct: the table holds none.  docs/API.md lists the same variables
// (tools/check_docs.py checks both directions).
//
// The table is constant-initialized, so reads are safe during static
// initialization (util/fault.cc parses BST_FAULT there).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bst::util::env {

enum class Type : std::uint8_t { Integer, Real, Switch, String, Choice };

/// One declared variable.  Integer and Real accept [lo, hi] (lo excluded
/// when lo_open; hi = +inf means no upper bound), Choice accepts one of the
/// '|'-separated `choices`, String any value.
struct Var {
  std::string_view name;
  Type type;
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  std::string_view choices = {};
};

/// Every declared variable, sorted by name.
[[nodiscard]] std::span<const Var> declared();

/// The accepted values of `v` as an error message states them, e.g.
/// "an integer in [0, 10000]", "a number > 0", "0 or 1".
[[nodiscard]] std::string accepted(const Var& v);

/// Reads every declared variable that is set through its declared type and
/// range, and throws std::runtime_error on the first bad value (or on a set
/// BST_* name the table lacks).  Binaries call it at startup, so a bad
/// setting fails even when the module that reads it never runs.
void check();

/// The declared variables that are set to a non-empty value, as
/// (name, value) sorted by name: the settings a report records.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> in_effect();

namespace detail {
// Typed reads of a declared variable: nullopt when unset or empty.  Reading
// an undeclared name, or a name as the wrong type, throws std::logic_error.
std::optional<long> integer(std::string_view name);
std::optional<double> real(std::string_view name);
std::optional<bool> flag(std::string_view name);
std::optional<std::string> text(std::string_view name);
}  // namespace detail

/// Overwrites `out` with the value of `name` when it is set and returns
/// true; returns false and leaves `out` alone when it is unset or empty.
/// The type of `out` picks the reader: bool for a switch, an integer type
/// for an integer, a floating type for a real, std::string for a string or
/// choice.  A value outside the declared range throws std::runtime_error
/// naming the variable.
template <typename T>
bool read(std::string_view name, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::optional<bool> v = detail::flag(name);
    if (v) out = *v;
    return v.has_value();
  } else if constexpr (std::is_integral_v<T>) {
    const std::optional<long> v = detail::integer(name);
    if (!v) return false;
    // The declared range must fit the field; a table entry wider than its
    // field is a program bug, not a bad setting.
    if (!std::in_range<T>(*v)) {
      throw std::logic_error(std::string(name) + ": declared range exceeds its field");
    }
    out = static_cast<T>(*v);
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    const std::optional<double> v = detail::real(name);
    if (v) out = static_cast<T>(*v);
    return v.has_value();
  } else {
    static_assert(std::is_same_v<T, std::string>, "env::read: unsupported field type");
    std::optional<std::string> v = detail::text(name);
    if (v) out = std::move(*v);
    return v.has_value();
  }
}

}  // namespace bst::util::env
