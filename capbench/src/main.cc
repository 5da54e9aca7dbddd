// capbench: one benchmark for capplan. Runs one named workload against the
// library in this process and prints every metric by name and unit; the last
// line of standard output is the JSON result.
//
//   capbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--git-sha <sha>]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "capbench: %s\nusage: capbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--git-sha <sha>]\nworkloads:",
               why);
  for (const auto& w : capbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  capbench::RunOptions options;
  options.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  const capbench::WorkloadSpec* spec = capbench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  capbench::RunResult result = capbench::RunWorkload(*spec, options);
  for (auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.correct = false;
      result.failures.push_back(m.name + " is not a finite number");
      m.value = -1.0;
    }
  }

  for (const auto& m : result.metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : result.failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ops.attempted());
  json += ", \"failed\": " + std::to_string(result.ops.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + Escape(m.name) + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
