// bst_postmortem: decode a crashbox report (util/crashbox.h) into
// human-readable form, optionally exporting the final flight-recorder rings
// as a chrome-trace/Perfetto JSON document (the live recorder's exporter,
// fed the decoded rings and the report's own phase table).
//
//   bst_postmortem <report.bstcrash>                 # print the summary
//   bst_postmortem <report> --trace=out.json         # + Perfetto trace
//   bst_postmortem <report> --assert-req=<id>        # CI: victim present?
//
// Exit codes: 0 decoded (and, with --assert-req, the request was found in
// the active-request table); 1 unreadable/malformed report; 2 usage (a
// malformed --assert-req id included, checked before the report is read);
// 3 --assert-req id not in the report.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "util/cli.h"
#include "util/postmortem.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: bst_postmortem <report.bstcrash> [--trace=out.json] [--assert-req=<id>]\n"
     << "Decodes a BST crash report (written to BST_CRASH_DIR by the crashbox\n"
     << "signal handler) into a human-readable summary; --trace exports the\n"
     << "final flight-recorder rings as chrome://tracing / Perfetto JSON.\n"
     << "--assert-req exits 3 unless the given request id is in the report's\n"
     << "active-request table (CI fault-injection gate).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, trace_out, assert_req;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg.rfind("--trace=", 0) == 0) {
      trace_out = arg.substr(8);
    } else if (arg.rfind("--assert-req=", 0) == 0) {
      assert_req = arg.substr(13);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "bst_postmortem: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::cerr << "bst_postmortem: more than one report path given\n";
      usage(std::cerr);
      return 2;
    }
  }
  if (path.empty()) {
    usage(std::cerr);
    return 2;
  }
  // A malformed id must not read as "not found" (3) or, worse, as a
  // truncated id that happens to be found (0).
  long want = 0;
  if (!assert_req.empty()) {
    try {
      want = bst::util::parse_number<long>("--assert-req", assert_req);
    } catch (const std::exception& e) {
      std::cerr << "bst_postmortem: " << e.what() << "\n";
      return 2;
    }
    if (want < 1) {
      std::cerr << "bst_postmortem: --assert-req: request ids start at 1, got '" << assert_req
                << "'\n";
      return 2;
    }
  }

  bst::util::CrashReport rep;
  try {
    rep = bst::util::read_crash_report(path);
  } catch (const std::exception& e) {
    std::cerr << "bst_postmortem: " << e.what() << "\n";
    return 1;
  }

  std::cout << "crash report: " << path << "\n" << bst::util::crash_summary(rep);

  if (!trace_out.empty()) {
    std::ofstream f(trace_out);
    if (!f) {
      std::cerr << "bst_postmortem: cannot open '" << trace_out << "' for writing\n";
      return 1;
    }
    bst::util::FlightRecorder::write_chrome_trace(
        f, rep.rings, [&rep](bst::util::PhaseId id) { return rep.phase_name(id); },
        /*open_at_crash=*/true);
    std::cout << "trace written: " << trace_out << "\n";
  }

  if (!assert_req.empty()) {
    for (const bst::util::CrashRequest& r : rep.requests) {
      if (r.id == static_cast<std::uint64_t>(want)) {
        std::cout << "assert-req: req " << want << " found, phase=" << r.phase << "\n";
        return 0;
      }
    }
    std::cerr << "bst_postmortem: req " << want
              << " not in the report's active-request table\n";
    return 3;
  }
  return 0;
}
