// Order statistics and open-loop latency accounting used by the fleet
// benchmark. Header-only so the self-test binary checks exactly the code
// the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty set");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// Quartiles by exactly the rule of Python's statistics.quantiles(v, n=4)
// (method "exclusive"): cut point k sits at 1-based position k*(n+1)/4 of
// the sorted data; the neighbour index is clamped to [1, n-1] and the
// weight is taken after clamping, so tiny samples extrapolate as Python's
// do.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need >= 2 values");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const auto cut = [&](long k) {
    const long m = n + 1;
    const long j = std::clamp(k * m / 4, 1L, n - 1);
    const long delta = k * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) / 4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

// (q3 - q1) / median: the run-to-run spread of a metric.
inline double relative_iqr(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / q.q2;
}

// The tail a timing reports: the highest percentile on a fixed ladder that
// still has at least `min_beyond` samples strictly above its rank, so the
// value rests on a handful of observations rather than one outlier.
struct Tail {
  double percentile = 0.0;  // 0 when there are too few samples for any rung
  double value = 0.0;
  std::size_t count = 0;
};

// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
inline std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::clamp(r, 1.0, static_cast<double>(n)));
}

inline Tail tail(std::vector<double> v, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0,
                                       50.0};
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(p, v.size());
    if (v.size() - rank >= min_beyond) {
      t.percentile = p;
      t.value = v[rank - 1];
      return t;
    }
  }
  return t;
}

// One open-loop request: when the schedule said to send it, when the
// generator actually sent it, and when the reply arrived. A failed request
// has no usable reply.
struct Timed {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = true;
};

// Latency from the due time, so a stall also charges the requests queued
// behind it. A failed request counts as missing every latency limit:
// +infinity, which sorts above every real sample.
inline std::vector<double> due_latencies(const std::vector<Timed>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const Timed& r : reqs) {
    out.push_back(r.ok ? r.done - r.due
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

// How late the generator sent each request (never negative: a request
// sent early was held until its due time).
inline std::vector<double> lateness(const std::vector<Timed>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const Timed& r : reqs) out.push_back(std::max(0.0, r.sent - r.due));
  return out;
}

}  // namespace perfbench
