// Small numeric and output helpers of the benchmark: nearest-rank
// percentiles, means, wall-clock timing and a flat JSON object writer.

#ifndef BEAS_PERFBENCH_STATS_H_
#define BEAS_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Ceil nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// The host's CPU time so far, from the first line of /proc/stat: all of
/// it and the part the hypervisor stole. Zeros where that file is missing.
struct CpuTicks {
  double total = 0, steal = 0;
};

inline CpuTicks ReadCpuTicks() {
  CpuTicks t;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (double x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

/// A flat JSON object written in insertion order. Numbers keep all their
/// digits (%.17g); non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + beas::JsonEscape(v) + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + beas::JsonEscape(fields_[i].first) + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // BEAS_PERFBENCH_STATS_H_
