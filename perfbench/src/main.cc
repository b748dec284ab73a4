// classic_perfbench: runs one named workload in this process, checks the
// answers, and prints one JSON result line (the last line of stdout).
//
//   classic_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// pipelines and prints the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: classic_perfbench --workload "
               "query-100k|serve-wire --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      // At most 60 s: set-up, timed phase and checks must fit the 170 s
      // that run.py allows one run.
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 60) {
        return Usage("--seconds takes a number in (0, 60]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (!have_workload) return Usage("--workload is required");
  std::filesystem::create_directories(args.out_dir);

  Outcome out;
  if (args.workload == "query-100k") {
    out = RunQuery100k(args);
  } else if (args.workload == "serve-wire") {
    out = RunServeWire(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  Phase("workload finished");
  for (const std::string& e : out.errors) std::printf("check failed: %s\n", e.c_str());
  std::string metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = out.layer.find(name);
      add(name, it == out.layer.end() ? 0 : it->second, unit);
    }
  } else {
    for (const Metric& m : out.metrics) add(m.name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
