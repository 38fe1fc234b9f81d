// Regression gate over cbe-bench-v1 result files: compares the current
// run's per-series medians against a committed baseline under a relative
// noise threshold.
//
//   bench_diff [--threshold=X] [--scale=X] [--only=PREFIX] [--ignore-config]
//              BASELINE CURRENT [--exact]
//
//   --threshold=X      allowed relative slowdown before a series counts as a
//                      regression (default 0.10 = 10%)
//   --scale=X          multiplies the current medians before comparing; the
//                      CI self-test injects --scale=2 to prove the gate
//                      actually fires on a 2x slowdown
//   --only=PREFIX      restrict the comparison to series whose name starts
//                      with PREFIX (both sides).  Lets CI gate the
//                      machine-portable series of a report (e.g. the
//                      "ratio/" simd-vs-scalar series of BENCH_micro) while
//                      ignoring raw wall times that vary per machine.  A
//                      prefix matching nothing in the baseline is an error,
//                      not a silent pass.
//   --ignore-config    compare even when the config_hash fields differ
//   --exact            fail on any difference in either direction: a median
//                      that moved at all (an improvement too) or a series
//                      only one side has.  For reports whose series are
//                      simulated time, which a host-only change must leave
//                      bit-identical; the threshold is then ignored.
//                      Give it after the two files (or as --exact=1): a
//                      bare flag takes the next argument as its value.
//
// Exit codes: 0 = within threshold, 1 = regression, any --exact difference
// (or incomparable inputs), 2 = usage / unreadable / malformed input.  Improvements and new
// series are reported but never fail the gate; a series that disappeared
// from the current run does fail it (a silently dropped measurement looks
// exactly like a silently dropped regression).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using cbe::util::Json;

struct Series {
  std::string name;
  long long median_ns = 0;
};

struct Report {
  std::string bench;
  double config_hash = 0.0;
  std::vector<Series> series;
};

bool load_report(const std::string& path, Report& out, std::string& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  Json root;
  if (!cbe::util::parse_json(ss.str(), root, &err)) {
    err = path + ": " + err;
    return false;
  }
  const Json* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "cbe-bench-v1") {
    err = path + ": not a cbe-bench-v1 file";
    return false;
  }
  if (const Json* b = root.find("bench"); b != nullptr && b->is_string()) {
    out.bench = b->str;
  }
  if (const Json* h = root.find("config_hash");
      h != nullptr && h->is_number()) {
    out.config_hash = h->number;
  }
  const Json* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    err = path + ": missing results array";
    return false;
  }
  for (const Json& r : results->items) {
    const Json* name = r.find("name");
    const Json* median = r.find("median_ns");
    if (name == nullptr || !name->is_string() || median == nullptr ||
        !median->is_number()) {
      err = path + ": malformed results entry";
      return false;
    }
    out.series.push_back(
        Series{name->str, static_cast<long long>(median->number)});
  }
  return true;
}

const Series* find_series(const Report& r, const std::string& name) {
  for (const Series& s : r.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  cbe::util::Cli cli(argc, argv);
  const double threshold = cli.get_double("threshold", 0.10);
  const double scale = cli.get_double("scale", 1.0);
  const std::string only = cli.get("only", "");
  const bool ignore_config = cli.get_bool("ignore-config", false);
  const bool exact = cli.get_bool("exact", false);
  const std::string usage =
      "bench_diff [--threshold=X] [--scale=X] [--only=PREFIX] "
      "[--ignore-config] BASELINE.json CURRENT.json [--exact]";
  cli.enforce_usage_or_exit(usage);
  if (cli.positional().size() != 2) {
    std::fprintf(stderr, "usage: %s\n", usage.c_str());
    return 2;
  }

  Report base, cur;
  std::string err;
  if (!load_report(cli.positional()[0], base, err) ||
      !load_report(cli.positional()[1], cur, err)) {
    std::fprintf(stderr, "bench_diff: %s\nusage: %s\n", err.c_str(),
                 usage.c_str());
    return 2;
  }

  if (!only.empty()) {
    const auto keep_prefixed = [&only](Report& r) {
      std::vector<Series> kept;
      for (const Series& s : r.series) {
        if (s.name.rfind(only, 0) == 0) kept.push_back(s);
      }
      r.series = std::move(kept);
    };
    keep_prefixed(base);
    keep_prefixed(cur);
    if (base.series.empty()) {
      std::fprintf(stderr,
                   "bench_diff: --only=%s matches no baseline series — a "
                   "typo here would turn the gate into a no-op\n",
                   only.c_str());
      return 1;
    }
  }

  if (base.bench != cur.bench) {
    std::fprintf(stderr,
                 "bench_diff: comparing different benches ('%s' vs '%s')\n",
                 base.bench.c_str(), cur.bench.c_str());
    return 1;
  }
  if (base.config_hash != cur.config_hash) {
    std::fprintf(stderr,
                 "bench_diff: config_hash mismatch (%.0f vs %.0f) — the two "
                 "runs measured different workloads%s\n",
                 base.config_hash, cur.config_hash,
                 ignore_config ? "; continuing (--ignore-config)" : "");
    if (!ignore_config) return 1;
  }

  int regressions = 0, improvements = 0, missing = 0, fresh = 0, ok = 0,
      differ = 0;
  for (const Series& b : base.series) {
    const Series* c = find_series(cur, b.name);
    if (c == nullptr) {
      std::printf("MISSING  %-28s baseline %lld ns, absent from current\n",
                  b.name.c_str(), b.median_ns);
      ++missing;
      continue;
    }
    const double cur_ns = static_cast<double>(c->median_ns) * scale;
    const double base_ns = static_cast<double>(b.median_ns);
    const double rel =
        base_ns > 0.0 ? (cur_ns - base_ns) / base_ns : 0.0;
    if (exact) {
      if (cur_ns != base_ns) {
        std::printf("DIFFER   %-28s %.0f ns vs %.0f ns  (--exact)\n",
                    b.name.c_str(), cur_ns, base_ns);
        ++differ;
      } else {
        ++ok;
      }
    } else if (rel > threshold) {
      std::printf("REGRESS  %-28s %.0f ns vs %.0f ns  (%+.1f%% > %.1f%%)\n",
                  b.name.c_str(), cur_ns, base_ns, 100.0 * rel,
                  100.0 * threshold);
      ++regressions;
    } else if (rel < -threshold) {
      std::printf("IMPROVE  %-28s %.0f ns vs %.0f ns  (%+.1f%%)\n",
                  b.name.c_str(), cur_ns, base_ns, 100.0 * rel);
      ++improvements;
    } else {
      ++ok;
    }
  }
  for (const Series& c : cur.series) {
    if (find_series(base, c.name) == nullptr) {
      std::printf("NEW      %-28s %lld ns (no baseline)\n", c.name.c_str(),
                  c.median_ns);
      ++fresh;
    }
  }

  if (exact) {
    std::printf("bench_diff: %s — %d identical, %d differ, %d missing, "
                "%d new (--exact)\n",
                base.bench.c_str(), ok, differ, missing, fresh);
    return differ > 0 || missing > 0 || fresh > 0 ? 1 : 0;
  }
  std::printf("bench_diff: %s — %d ok, %d regressed, %d improved, "
              "%d missing, %d new (threshold %.1f%%)\n",
              base.bench.c_str(), ok, regressions, improvements, missing,
              fresh, 100.0 * threshold);
  return regressions > 0 || missing > 0 ? 1 : 0;
}
