// rfid_bench: runs one benchmark workload and prints its result as one JSON
// line on stdout. benchmark/run.py builds this binary, runs each workload in
// its own process and checks the digests against benchmark/golden/.
//
//   rfid_bench --workload NAME [--seed N] [--quick] [--trace 0|1]
//              [--trace-out PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>

#include "workloads.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", *v);
  return buf;
}

void printResult(const std::string& workload,
                 const rfidbench::RunOptions& o,
                 const rfidbench::RunResult& r) {
  std::cout << "{\"workload\":" << quoted(workload) << ",\"seed\":" << o.seed
            << ",\"trace\":" << (o.trace ? 1 : 0)
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const rfidbench::Check& c = r.checks[i];
    std::cout << (i ? "," : "") << "{\"name\":" << quoted(c.name)
              << ",\"ok\":" << (c.ok ? "true" : "false")
              << ",\"detail\":" << quoted(c.detail) << "}";
  }
  std::cout << "],\"metrics\":[";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const rfidbench::Metric& m = r.metrics[i];
    std::cout << (i ? "," : "") << "{\"name\":" << quoted(m.name)
              << ",\"value\":" << number(m.value)
              << ",\"unit\":" << quoted(m.unit) << ",\"n\":" << m.samples
              << "}";
  }
  std::cout << "],\"digests\":[";
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    std::cout << (i ? "," : "") << quoted(r.digests[i]);
  }
  std::cout << "]}" << std::endl;
}

int usage() {
  std::cerr << "usage: rfid_bench --workload NAME [--seed N] [--quick] "
               "[--trace 0|1] [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rfidbench::RunOptions o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--workload" && hasValue) {
      workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && hasValue) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-out" && hasValue) {
      o.traceOut = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload.empty()) return usage();
  try {
    const rfidbench::RunResult r = rfidbench::runWorkload(workload, o);
    printResult(workload, o, r);
  } catch (const std::exception& e) {
    std::cerr << "rfid_bench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
