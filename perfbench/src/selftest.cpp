// Self-test of the benchmark's own statistics and its production-config
// guard, on fixed inputs. Exits 1 on the first failed check.
#include <cmath>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "guard.h"
#include "stats.h"

namespace {

namespace pb = perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_median() {
  expect(near(pb::median({5}), 5), "median of one value");
  expect(near(pb::median({3, 1, 2}), 2), "median of an odd count");
  expect(near(pb::median({4, 1, 3, 2}), 2.5), "median of an even count");
  bool threw = false;
  try {
    (void)pb::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

void test_quartiles() {
  // Expected values from Python: statistics.quantiles(v, n=4).
  const auto q = pb::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10 are 2.75 / 5.5 / 8.25");
  const auto r = pb::quartiles({10, 1, 7, 3});
  expect(near(r.q1, 1.5) && near(r.q2, 5.0) && near(r.q3, 9.25),
         "quartiles of {1,3,7,10} are 1.5 / 5.0 / 9.25");
  const auto s = pb::quartiles({1, 2});
  expect(near(s.q1, 0.75) && near(s.q2, 1.5) && near(s.q3, 2.25),
         "two values extrapolate as Python does: 0.75 / 1.5 / 2.25");
  expect(near(pb::relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
              (8.25 - 2.75) / 5.5),
         "relative IQR is (q3 - q1) / median");
}

void test_tail() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto t = pb::tail(v);
  expect(t.percentile == 99.0 && near(t.value, 990) && t.count == 1000,
         "1000 samples: p99 = 990, exactly 10 beyond it");
  v.pop_back();  // 999: p99 would leave 9 beyond
  t = pb::tail(v);
  expect(t.percentile == 95.0 && near(t.value, 950),
         "999 samples: falls back to p95");
  std::vector<double> w;
  for (int i = 1; i <= 100000; ++i) w.push_back(i);
  t = pb::tail(w);
  expect(t.percentile == 99.99 && near(t.value, 99990),
         "100000 samples: p99.99, exactly 10 beyond it");
  std::vector<double> few = {3, 1, 2};
  t = pb::tail(few);
  expect(t.percentile == 0 && t.count == 3, "3 samples: no rung qualifies");
  std::vector<double> shuffled = {7, 1, 9, 3, 5, 2, 8, 4, 6, 10,
                                  11, 15, 13, 12, 14, 20, 16, 18, 17, 19};
  t = pb::tail(shuffled);
  expect(t.percentile == 50.0 && near(t.value, 10),
         "20 samples: p50 = 10 with 10 beyond");
}

void test_due_latency() {
  // Three requests due every 10 ms; the second stalls 25 ms, so the third
  // is sent 15 ms late and its latency includes that wait.
  const std::vector<pb::Timed> reqs = {
      {0.000, 0.000, 0.002, true},
      {0.010, 0.010, 0.035, true},
      {0.020, 0.035, 0.037, true},
      {0.030, 0.037, 0.037, false},
  };
  const auto lat = pb::due_latencies(reqs);
  expect(lat.size() == 4 && near(lat[0], 0.002) && near(lat[1], 0.025) &&
             near(lat[2], 0.017),
         "latency counts from the due time, not the send time");
  expect(std::isinf(lat[3]), "a failed request misses every limit (+inf)");
  const auto late = pb::lateness(reqs);
  expect(near(late[0], 0) && near(late[1], 0) && near(late[2], 0.015) &&
             near(late[3], 0.007),
         "lateness is send minus due");
  expect(std::isinf(pb::tail(lat, 0).value), "the top latency is the failure");
}

class StubScorer final : public hdd::core::SampleScorer {
 public:
  double predict(std::span<const float>) const override { return 0.5; }
  void predict_batch(std::span<const float>,
                     std::span<double> out) const override {
    for (double& o : out) o = 0.5;
  }
  int num_features() const override { return 2; }
  std::string summary() const override { return "healthy"; }
};

void test_guard() {
  const StubScorer stub;
  for (const auto kind : {pb::ModelKind::kCt, pb::ModelKind::kForest40}) {
    bool threw = false;
    try {
      pb::require_production_config(stub, kind, true);
    } catch (const std::runtime_error& e) {
      threw = std::string(e.what()).find("2 features") != std::string::npos;
    }
    expect(threw, "the guard rejects a 2-feature stub scorer");
  }
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_tail();
  test_due_latency();
  test_guard();
  if (failures > 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "fleetbench self-test: all checks passed\n";
  return 0;
}
