// bench_all: run the whole figure/extension bench suite and merge the
// per-bench JSON reports into one suite file.
//
// Usage:
//   bench_all [options] [bench_id ...]
//     --bin-dir DIR   directory holding the bench binaries
//                     (default: <dir of bench_all>/../bench)
//     --work-dir DIR  where per-bench .json and .log files land
//                     (default: bench_json)
//     --out FILE      merged suite file (default: BENCH_PR4.json)
//
// With no bench_id arguments every known bench runs (obs::KnownBenchIds);
// naming benches runs just those, still merged into one suite. Each bench's
// stdout/stderr is captured to <work-dir>/<id>.log; its JSON report is
// validated (schema, mode consistency) before it enters the suite. Exit
// status: 0 = every bench ran and validated, 1 = at least one failed,
// 2 = usage error.
//
// SJOIN_BENCH=quick is forwarded to the benches (it is simply inherited);
// the merged suite records the mode so bench_diff can refuse cross-mode
// comparisons.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.h"

namespace {

namespace fs = std::filesystem;

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_all [--bin-dir DIR] [--work-dir DIR] "
               "[--out FILE] [bench_id ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path bin_dir;
  fs::path work_dir = "bench_json";
  fs::path out_file = "BENCH_PR4.json";
  std::vector<std::string> ids;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--bin-dir") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      bin_dir = v;
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      work_dir = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = value();
      if (v == nullptr) return Usage();
      out_file = v;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      ids.emplace_back(argv[i]);
    }
  }
  if (bin_dir.empty()) {
    bin_dir = fs::path(argv[0]).parent_path() / ".." / "bench";
  }
  if (ids.empty()) ids = sjoin::obs::KnownBenchIds();

  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_all: cannot create %s: %s\n",
                 work_dir.string().c_str(), ec.message().c_str());
    return 1;
  }

  sjoin::obs::BenchSuite suite;
  bool first = true;
  int failures = 0;
  for (const std::string& id : ids) {
    const fs::path bin = bin_dir / id;
    const fs::path json = work_dir / (id + ".json");
    const fs::path log = work_dir / (id + ".log");
    if (!fs::exists(bin)) {
      std::fprintf(stderr, "bench_all: missing binary %s\n",
                   bin.string().c_str());
      ++failures;
      continue;
    }
    fs::remove(json, ec);

    // The bench writes its own report; the env var points it at work-dir.
    // setenv + std::system keeps the child's environment inherited.
    ::setenv("SJOIN_BENCH_JSON_DIR", work_dir.string().c_str(), 1);
    // Appended to: GCC 12 -O3 reports a false -Wrestrict for "'" + string.
    std::string cmd = "'";
    cmd += bin.string() + "' > '" + log.string() + "' 2>&1";
    std::printf("bench_all: running %s ...\n", id.c_str());
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench_all: %s exited %d (see %s)\n", id.c_str(),
                   rc, log.string().c_str());
      ++failures;
      continue;
    }

    std::string text;
    if (!ReadFile(json, &text)) {
      std::fprintf(stderr, "bench_all: %s produced no %s\n", id.c_str(),
                   json.string().c_str());
      ++failures;
      continue;
    }
    sjoin::obs::BenchReport report;
    std::string err;
    if (!sjoin::obs::ParseBenchReport(text, &report, &err)) {
      std::fprintf(stderr, "bench_all: %s: invalid report: %s\n", id.c_str(),
                   err.c_str());
      ++failures;
      continue;
    }
    if (report.bench_id != id) {
      std::fprintf(stderr, "bench_all: %s: report names itself %s\n",
                   id.c_str(), report.bench_id.c_str());
      ++failures;
      continue;
    }
    if (first) {
      suite.mode = report.mode;
      first = false;
    } else if (report.mode != suite.mode) {
      std::fprintf(stderr,
                   "bench_all: %s ran in mode %s but the suite is %s\n",
                   id.c_str(), report.mode.c_str(), suite.mode.c_str());
      ++failures;
      continue;
    }
    suite.benches.push_back(std::move(report));
  }

  if (suite.benches.empty()) {
    std::fprintf(stderr, "bench_all: no bench produced a valid report\n");
    return 1;
  }
  const std::string merged = suite.ToJson();
  // Round-trip through the strict parser: the merged artifact must satisfy
  // the same schema bench_diff will load it with.
  {
    sjoin::obs::BenchSuite check;
    std::string err;
    if (!sjoin::obs::ParseBenchSuite(merged, &check, &err)) {
      std::fprintf(stderr, "bench_all: merged suite invalid: %s\n",
                   err.c_str());
      return 1;
    }
  }
  std::ofstream out(out_file, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench_all: cannot write %s\n",
                 out_file.string().c_str());
    return 1;
  }
  out << merged;
  out.close();
  std::printf("bench_all: wrote %s (%zu benches, mode %s)%s\n",
              out_file.string().c_str(), suite.benches.size(),
              suite.mode.c_str(),
              failures > 0 ? " -- WITH FAILURES" : "");
  return failures > 0 ? 1 : 0;
}
