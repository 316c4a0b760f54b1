#include "util/postmortem.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bst::util {
namespace {

// First whitespace-separated token; `rest` gets everything after it.
std::string split_first(const std::string& line, std::string* rest) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    if (rest != nullptr) rest->clear();
    return line;
  }
  if (rest != nullptr) *rest = line.substr(sp + 1);
  return line.substr(0, sp);
}

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::int64_t to_i64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

bool plausible_event(const FlightEvent& e) {
  const auto kind = static_cast<std::uint8_t>(e.kind);
  if (kind > static_cast<std::uint8_t>(EventKind::kInstant)) return false;
  return e.phase >= -1 && e.phase < 65536;
}

}  // namespace

std::string CrashReport::phase_name(int id) const {
  for (const auto& [pid, name] : phase_names) {
    if (pid == id) return name;
  }
  return "phase_" + std::to_string(id);
}

CrashReport read_crash_report(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open crash report '" + path + "'");

  std::string line;
  if (!std::getline(f, line) || line != "BSTCRASH v1") {
    throw std::runtime_error("'" + path + "' is not a BSTCRASH v1 report");
  }

  CrashReport rep;
  rep.truncated = true;  // cleared by the `end` marker
  enum class Section { kTop, kProvenance, kCounters, kRequests, kPhases, kRings };
  Section sec = Section::kTop;

  while (std::getline(f, line)) {
    if (sec == Section::kProvenance) {
      if (line == "provenance_end") {
        sec = Section::kTop;
      } else {
        std::string rest;
        const std::string key = split_first(line, &rest);
        rep.provenance.emplace_back(key, rest);
      }
      continue;
    }
    if (sec == Section::kCounters) {
      if (line == "counters_end") {
        sec = Section::kTop;
      } else {
        std::string rest, value;
        const std::string tag = split_first(line, &rest);
        const std::string name = split_first(rest, &value);
        if (tag == "c") rep.counters.emplace_back(name, to_u64(value));
        else if (tag == "g") rep.gauges.emplace_back(name, to_i64(value));
      }
      continue;
    }
    if (sec == Section::kRequests) {
      if (line == "requests_end") {
        sec = Section::kTop;
      } else {
        std::string rest;
        const std::string tag = split_first(line, &rest);
        if (tag == "r") {
          CrashRequest req;
          std::string after_id, age;
          req.id = to_u64(split_first(rest, &after_id));
          req.phase = split_first(after_id, &age);
          req.age_ns = to_u64(age);
          rep.requests.push_back(std::move(req));
        } else if (tag == "overflow") {
          rep.request_overflow = to_u64(rest);
        }
      }
      continue;
    }
    if (sec == Section::kPhases) {
      if (line == "phases_end") {
        sec = Section::kTop;
      } else {
        std::string rest, id;
        if (split_first(line, &rest) == "p") {
          const std::string name = split_first(rest, &id);
          rep.phase_names.emplace_back(static_cast<int>(to_i64(id)), name);
        }
      }
      continue;
    }
    if (sec == Section::kRings) {
      if (line == "rings_end") {
        sec = Section::kTop;
        continue;
      }
      std::string rest;
      const std::string tag = split_first(line, &rest);
      if (tag == "rings_skipped") {
        rep.rings_skipped = to_u64(rest);
        continue;
      }
      if (tag != "ring") continue;
      // ring <tid> <virtual> <head> <cap> <count> <dropped> <label>
      ThreadEvents ring;
      std::string r2, r3, r4, r5, r6;
      ring.tid = static_cast<std::uint32_t>(to_u64(split_first(rest, &r2)));
      ring.virtual_time = to_u64(split_first(r2, &r3)) != 0;
      split_first(r3, &r4);  // head: unused, count says how many follow
      split_first(r4, &r5);  // cap: unused
      const std::uint64_t count = to_u64(split_first(r5, &r6));
      ring.dropped = to_u64(split_first(r6, &ring.label));  // lost to wrap
      if (rep.event_size == 0 || count > (1ull << 32)) break;  // malformed: stop
      std::vector<char> raw(static_cast<std::size_t>(count) * rep.event_size);
      if (!f.read(raw.data(), static_cast<std::streamsize>(raw.size()))) {
        // Truncated mid-ring: decode what arrived.
        raw.resize(static_cast<std::size_t>(f.gcount()));
      }
      const std::size_t n = raw.size() / rep.event_size;
      ring.events.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        FlightEvent e;
        if (rep.event_size == sizeof(FlightEvent)) {
          std::memcpy(&e, raw.data() + i * rep.event_size, sizeof e);
          if (plausible_event(e)) {
            ring.events.push_back(e);
            continue;
          }
        }
        ++ring.torn;  // torn record, or a cross-version event size
      }
      count_unmatched_ends(ring);
      rep.rings.push_back(std::move(ring));
      f.get();  // the '\n' after the raw bytes
      continue;
    }

    // Top level.
    std::string rest;
    const std::string key = split_first(line, &rest);
    if (key == "signal") {
      std::string name;
      rep.signal = static_cast<int>(to_i64(split_first(rest, &name)));
      rep.signal_name = name;
    } else if (key == "reason") {
      rep.reason = rest;
    } else if (key == "ts_ns") {
      rep.ts_ns = to_u64(rest);
    } else if (key == "provenance_begin") {
      sec = Section::kProvenance;
    } else if (key == "counters_begin") {
      sec = Section::kCounters;
    } else if (key == "requests_begin") {
      sec = Section::kRequests;
    } else if (key == "phases_begin") {
      sec = Section::kPhases;
    } else if (key == "tick") {
      const std::uint64_t len = to_u64(rest);
      if (len > 0 && len < (1ull << 24)) {
        std::string tick(static_cast<std::size_t>(len), '\0');
        if (f.read(tick.data(), static_cast<std::streamsize>(len))) {
          rep.last_tick = std::move(tick);
        }
      }
      f.get();  // trailing '\n'
    } else if (key == "tick_torn") {
      rep.tick_torn = true;
    } else if (key == "event_size") {
      rep.event_size = static_cast<std::size_t>(to_u64(rest));
    } else if (key == "rings_begin") {
      sec = Section::kRings;
    } else if (key == "end") {
      rep.truncated = false;
      break;
    }
  }
  return rep;
}

std::string crash_summary(const CrashReport& rep) {
  std::ostringstream os;
  os << "BSTCRASH v1: " << (rep.signal_name.empty() ? "unknown" : rep.signal_name)
     << " (signal " << rep.signal << ")";
  if (!rep.reason.empty() && rep.reason != rep.signal_name) {
    os << ", reason: " << rep.reason;
  }
  os << "\n";
  if (rep.truncated) os << "WARNING: report truncated (process died mid-dump)\n";

  os << "provenance:\n";
  for (const auto& [key, value] : rep.provenance) {
    os << "  " << key << " " << value << "\n";
  }

  if (rep.last_tick.empty()) {
    os << "last tick: (none)\n";
  } else {
    os << "last tick" << (rep.tick_torn ? " (torn)" : "") << ": " << rep.last_tick << "\n";
  }

  os << "active requests (" << rep.requests.size();
  if (rep.request_overflow > 0) os << ", overflow " << rep.request_overflow;
  os << "):\n";
  for (const CrashRequest& r : rep.requests) {
    char age[32];
    std::snprintf(age, sizeof age, "%.3f", static_cast<double>(r.age_ns) / 1e6);
    os << "  req " << r.id << " phase=" << r.phase << " age_ms=" << age << "\n";
  }

  os << "counters (nonzero):\n";
  for (const auto& [name, value] : rep.counters) {
    if (value != 0) os << "  " << name << " " << value << "\n";
  }
  os << "gauges:\n";
  for (const auto& [name, value] : rep.gauges) {
    os << "  " << name << " " << value << "\n";
  }

  std::uint64_t events = 0, dropped = 0, torn = 0;
  for (const ThreadEvents& ring : rep.rings) {
    events += ring.events.size();
    dropped += ring.dropped;
    torn += ring.torn;
  }
  os << "rings (" << rep.rings.size() << ", " << events << " events, " << dropped
     << " dropped, " << torn << " torn";
  if (rep.rings_skipped > 0) os << ", " << rep.rings_skipped << " rings skipped";
  os << "):\n";
  for (const ThreadEvents& ring : rep.rings) {
    os << "  tid " << ring.tid << " '" << ring.label << "' " << ring.events.size()
       << " events";
    // The deepest still-open span is where that thread died.
    const SpanWalk walk = walk_spans(ring.events);
    if (!walk.open.empty()) {
      os << ", open span: " << rep.phase_name(ring.events[walk.open.back()].phase);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace bst::util
