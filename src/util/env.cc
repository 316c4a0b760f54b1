#include "util/env.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/cli.h"

namespace bst::util::env {
namespace {

constexpr double kNoLimit = std::numeric_limits<double>::infinity();
// Fields of type int.
constexpr double kIntMax = std::numeric_limits<int>::max();
// Sleeps and condition-variable waits: a day, far below the point where a
// millisecond count overflows the clocks' nanosecond arithmetic.
constexpr double kDayMs = 86'400'000.0;

constexpr Var int_var(std::string_view name, double lo, double hi) {
  return {name, Type::Integer, lo, hi};
}
constexpr Var positive_var(std::string_view name) {
  return {name, Type::Real, 0.0, kNoLimit, /*lo_open=*/true};
}
constexpr Var switch_var(std::string_view name) { return {name, Type::Switch}; }
constexpr Var string_var(std::string_view name) { return {name, Type::String}; }

// Sorted by name (checked below).  Names are string literals, so their
// data() is NUL-terminated and can go straight to getenv.
constexpr std::array kVars = {
    string_var("BST_BENCH_OUT"),
    string_var("BST_CALIBRATION"),
    string_var("BST_CRASH_DIR"),
    string_var("BST_FAULT"),
    int_var("BST_FAULT_HANG_MS", 0, kDayMs),
    int_var("BST_FAULT_SLOW_MS", 0, kDayMs),
    int_var("BST_KERNEL_KC", 1, kNoLimit),
    int_var("BST_KERNEL_MC", 1, kNoLimit),
    int_var("BST_KERNEL_NC", 1, kNoLimit),
    int_var("BST_KERNEL_PACK_MIN_FLOPS", 1, kNoLimit),
    int_var("BST_KERNEL_PACK_MIN_M", 1, kNoLimit),
    int_var("BST_KERNEL_PAR_MIN_FLOPS", 1, kNoLimit),
    switch_var("BST_KERNEL_SIMD"),
    int_var("BST_PCG_MAXIT", 1, kIntMax),
    positive_var("BST_PCG_TOL"),
    switch_var("BST_PROF"),
    int_var("BST_PROF_HZ", 0, 10000),
    string_var("BST_PROF_OUT"),
    switch_var("BST_PROF_PMU"),
    positive_var("BST_SCHUR_GRAIN_FLOPS"),
    int_var("BST_SERVICE_BATCH", 1, kNoLimit),
    int_var("BST_SERVICE_CACHE_BYTES", 0, kNoLimit),
    switch_var("BST_SERVICE_NOCACHE"),
    int_var("BST_SERVICE_PANEL", 1, kNoLimit),
    int_var("BST_SERVICE_QUEUE", 1, kNoLimit),
    int_var("BST_SERVICE_REFINE", 0, kIntMax),
    Var{"BST_SERVICE_SLOW_MS", Type::Real, 0.0, kNoLimit},
    int_var("BST_SERVICE_TRACE_REQS", 0, kNoLimit),
    positive_var("BST_SLO_P99_MS"),
    Var{"BST_SOLVER", Type::Choice, 0.0, 0.0, false, "auto|schur|pcg"},
    positive_var("BST_SOLVER_MAX_COND"),
    int_var("BST_SOLVER_MIN_N", 0, kNoLimit),
    switch_var("BST_STALL_FATAL"),
    int_var("BST_STALL_MS", 0, kDayMs),
    int_var("BST_TELEMETRY_INTERVAL_MS", 10, kDayMs),
    string_var("BST_TELEMETRY_OUT"),
    string_var("BST_TELEMETRY_PROM"),
    int_var("BST_TELEMETRY_WINDOW", 1, kNoLimit),
    int_var("BST_THREADS", 1, 1024),
};
static_assert(std::is_sorted(kVars.begin(), kVars.end(),
                             [](const Var& a, const Var& b) { return a.name < b.name; }),
              "kVars must stay sorted by name");

const Var* find(std::string_view name) {
  const auto* it = std::lower_bound(kVars.begin(), kVars.end(), name,
                                    [](const Var& v, std::string_view n) { return v.name < n; });
  return (it != kVars.end() && it->name == name) ? it : nullptr;
}

// The value of `v`, or nullptr when unset or empty.
const char* value_of(const Var& v) {
  const char* s = std::getenv(v.name.data());
  return (s == nullptr || *s == '\0') ? nullptr : s;
}

// A set BST_* name the table lacks is almost always a misspelling of one it
// has (BST_THREAD for BST_THREADS); reading on without it would silently
// drop the setting.
void reject_undeclared() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (!kv.starts_with("BST_")) continue;
    const std::size_t eq = kv.find('=');
    const std::string_view name = kv.substr(0, eq);
    if (eq == std::string_view::npos || eq + 1 == kv.size() || find(name) != nullptr) continue;
    throw std::runtime_error(std::string(name) +
                             ": not a variable this program reads (docs/API.md lists them)");
  }
}

const Var& lookup(std::string_view name, Type want) {
  const Var* v = find(name);
  if (v == nullptr) throw std::logic_error(std::string(name) + ": not declared in util/env.cc");
  const bool ok = v->type == want || (want == Type::String && v->type == Type::Choice);
  if (!ok) throw std::logic_error(std::string(name) + ": read as the wrong type");
  reject_undeclared();
  return *v;
}

[[noreturn]] void reject(const Var& v, const char* value) {
  throw std::runtime_error(std::string(v.name) + ": expected " + accepted(v) + ", got '" +
                           value + "'");
}

bool within(const Var& v, double x) {
  return (v.lo_open ? x > v.lo : x >= v.lo) && x <= v.hi;
}

std::string format_bound(double x, Type type) {
  char buf[32];
  if (type == Type::Integer) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(x));
  } else {
    std::snprintf(buf, sizeof buf, "%g", x);
  }
  return buf;
}

template <typename T>
std::optional<T> number(std::string_view name, Type type) {
  const Var& v = lookup(name, type);
  const char* s = value_of(v);
  if (s == nullptr) return std::nullopt;
  T x{};
  try {
    x = parse_number<T>(std::string(v.name), s);
  } catch (const std::runtime_error&) {
    reject(v, s);
  }
  // Finite integer bounds are small integers, exact in a double, so the
  // comparison is exact for either type.
  if (!within(v, static_cast<double>(x))) reject(v, s);
  return x;
}

}  // namespace

std::span<const Var> declared() { return kVars; }

std::string accepted(const Var& v) {
  switch (v.type) {
    case Type::Switch:
      return "0 or 1";
    case Type::String:
      return "a non-empty string";
    case Type::Choice:
      return "one of " + std::string(v.choices);
    case Type::Integer:
    case Type::Real:
      break;
  }
  std::string out = v.type == Type::Integer ? "an integer " : "a number ";
  const std::string lo = format_bound(v.lo, v.type);
  if (v.hi == kNoLimit) return out + (v.lo_open ? "> " : ">= ") + lo;
  return out + "in " + (v.lo_open ? "(" : "[") + lo + ", " + format_bound(v.hi, v.type) + "]";
}

void check() {
  reject_undeclared();
  for (const Var& v : kVars) {
    if (value_of(v) == nullptr) continue;
    switch (v.type) {
      case Type::Integer: detail::integer(v.name); break;
      case Type::Real: detail::real(v.name); break;
      case Type::Switch: detail::flag(v.name); break;
      case Type::String:
      case Type::Choice: detail::text(v.name); break;
    }
  }
}

std::vector<std::pair<std::string, std::string>> in_effect() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Var& v : kVars) {
    if (const char* s = value_of(v); s != nullptr) out.emplace_back(v.name, s);
  }
  return out;
}

namespace detail {

std::optional<long> integer(std::string_view name) { return number<long>(name, Type::Integer); }

std::optional<double> real(std::string_view name) { return number<double>(name, Type::Real); }

std::optional<bool> flag(std::string_view name) {
  const Var& v = lookup(name, Type::Switch);
  const char* s = value_of(v);
  if (s == nullptr) return std::nullopt;
  const std::string_view value = s;
  if (value != "0" && value != "1") reject(v, s);
  return value == "1";
}

std::optional<std::string> text(std::string_view name) {
  const Var& v = lookup(name, Type::String);
  const char* s = value_of(v);
  if (s == nullptr) return std::nullopt;
  if (v.type == Type::Choice) {
    std::string_view rest = v.choices;
    for (;;) {
      const std::size_t bar = rest.find('|');
      if (rest.substr(0, bar) == s) break;
      if (bar == std::string_view::npos) reject(v, s);
      rest.remove_prefix(bar + 1);
    }
  }
  return std::string(s);
}

}  // namespace detail
}  // namespace bst::util::env
