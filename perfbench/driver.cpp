// perfbench_driver: one benchmark run per process, reported as one JSON line.
//
//   perfbench_driver plain  --workload W --seed N [--spawn-ns NS] [--report F]
//       One harness::run_scenario call plus the library oracle, tracing off:
//       set-up time, run and oracle wall time, peak RSS and the simulated
//       results. --spawn-ns is the CLOCK_MONOTONIC instant at which the
//       caller started this process, so set-up time includes process start.
//       --report writes the RunReport as caesar-run-report/1 JSON. After the
//       oracle the process times a fixed calibration walk (calibrate()) so
//       that the caller can tell a slow machine from a slow program.
//   perfbench_driver count  --workload W --seed N
//       The benchmark's own driver (traced_run.h) with timing off: request
//       accounting, the saturation knee and unavailability, and the same
//       simulated results for the fidelity check.
//   perfbench_driver traced --workload W --seed N [--trace-out F]
//       The same driver with wall-time spans on: per-layer metrics, and a
//       Chrome trace-event JSON sample of the spans.
//
// Common flags: --data DIR (storage root, required), --smoke (the short
// workload variants the self-test runs).
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/report.h"
#include "harness/scenario.h"
#include "traced_run.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Keeps the calibration loop from being elided.
volatile std::uint64_t calibration_sink = 0;

/// Wall seconds of a fixed amount of work shaped like the simulator's own —
/// dependent loads scattered over a working set larger than the caches, plus
/// hash-map churn — and independent of the code under test: on a shared
/// machine whose speed drifts, run time / calibration time stays put while
/// each alone moves.
double calibrate() {
  constexpr std::size_t kSlots = std::size_t{1} << 22;  // 32 MiB of links
  // Sattolo's shuffle: one cycle through every slot, so the walk below never
  // settles into a cache-resident loop.
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t at = 0;
  std::uint64_t sink = 0;
  for (int i = 0; i < 600000; ++i) {
    at = next[at];
    if ((i & 7) == 0) {
      map[at & 0xFFFF] += at;
      auto it = map.find((at >> 3) & 0xFFFF);
      if (it != map.end()) {
        sink += it->second;
        map.erase(it);
      }
    }
  }
  calibration_sink = sink + at;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::int64_t spawn_ns = 0;
  std::string report;
  std::string trace_out;
  std::string data;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_driver MODE ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--spawn-ns") {
      a.spawn_ns = std::stoll(value());
    } else if (flag == "--report") {
      a.report = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--data") {
      a.data = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.data.empty()) {
    throw std::invalid_argument("--workload and --data are required");
  }
  return a;
}

int run_plain(const Args& a, std::int64_t main_ns) {
  const Workload w =
      make_workload(a.workload, a.seed, a.smoke, a.data + "/" + a.workload);
  const std::int64_t call_ns = monotonic_ns();
  const caesar::harness::RunReport r =
      caesar::harness::run_scenario(w.scenario);
  const std::int64_t run_ns = monotonic_ns();
  const std::string detail = check_run(r, w);
  const std::int64_t oracle_ns = monotonic_ns();
  const double rss_mb = peak_rss_mb();  // before the calibration walk's memory
  const double calib_s = calibrate();
  if (!a.report.empty()) {
    caesar::harness::JsonReportFile json("perfbench", a.report);
    json.add(w.name + "/seed=" + std::to_string(a.seed), r);
    if (!json.write()) throw std::runtime_error("cannot write " + a.report);
  }
  const std::int64_t start_ns = a.spawn_ns > 0 ? a.spawn_ns : main_ns;
  const auto& lat = r.total_latency;
  std::printf(
      "{\"mode\":\"plain\",\"correct\":%s,\"detail\":%s,\"setup_s\":%s,"
      "\"run_s\":%s,\"oracle_s\":%s,\"peak_rss_mb\":%s,\"completed\":%llu,"
      "\"submitted\":%llu,\"shed\":%llu,\"sim_tput_cps\":%s,"
      "\"sim_lat_p50_ms\":%s,\"sim_lat_p999_ms\":%s,\"lat_samples\":%llu,"
      "\"calib_s\":%s,\"fingerprint\":%s}\n",
      detail.empty() ? "true" : "false", quote(detail).c_str(),
      num((call_ns - start_ns) * 1e-9).c_str(),
      num((run_ns - call_ns) * 1e-9).c_str(),
      num((oracle_ns - run_ns) * 1e-9).c_str(), num(rss_mb).c_str(),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.flow_control.shed),
      num(r.throughput_tps).c_str(), num(lat.percentile(50) / 1000.0).c_str(),
      num(lat.percentile(99.9) / 1000.0).c_str(),
      static_cast<unsigned long long>(lat.count()), num(calib_s).c_str(),
      fingerprint(r).c_str());
  return 0;
}

int run_counted(const Args& a, bool timing) {
  const Workload w =
      make_workload(a.workload, a.seed, a.smoke, a.data + "/" + a.workload);
  DriverOptions opt;
  opt.timing = timing;
  opt.trace_out = a.trace_out;
  const DriverResult d = run_driver(w, opt);
  const Accounting& acct = d.acct;
  std::string layers = "{";
  for (const auto& [name, value] : d.layers) {
    if (layers.size() > 1) layers += ',';
    layers += quote(name) + ":" + num(value);
  }
  layers += "}";
  std::string types = "{";
  for (const auto& [type, v] : d.msg_types) {
    if (types.size() > 1) types += ',';
    types += quote(std::to_string(type)) + ":{\"calls\":" +
             std::to_string(v.first) + ",\"s\":" + num(v.second) + "}";
  }
  types += "}";
  std::printf(
      "{\"mode\":%s,\"correct\":%s,\"detail\":%s,\"wall_s\":%s,"
      "\"peak_rss_mb\":%s,\"accounting\":{\"attempted\":%llu,"
      "\"completed\":%llu,\"shed\":%llu,\"dropped_at_crash\":%llu,"
      "\"dropped_no_site\":%llu,\"in_flight_end\":%llu,\"failed\":%llu},"
      "\"knee_cps\":%s,"
      "\"unavail_ms\":%s,\"fingerprint\":%s,\"layers\":%s,\"msg_types\":%s}\n",
      quote(a.mode).c_str(), d.correct ? "true" : "false",
      quote(d.detail).c_str(), num(d.wall_s).c_str(),
      num(peak_rss_mb()).c_str(),
      static_cast<unsigned long long>(acct.attempted),
      static_cast<unsigned long long>(acct.completed),
      static_cast<unsigned long long>(acct.shed),
      static_cast<unsigned long long>(acct.dropped_at_crash),
      static_cast<unsigned long long>(acct.dropped_no_site),
      static_cast<unsigned long long>(acct.in_flight_end),
      static_cast<unsigned long long>(acct.failed()), num(d.knee_cps).c_str(),
      num(d.unavail_ms).c_str(),
      fingerprint(d.report).c_str(), layers.c_str(), types.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = monotonic_ns();
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "plain") return run_plain(a, main_ns);
    if (a.mode == "count") return run_counted(a, false);
    if (a.mode == "traced") return run_counted(a, true);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
