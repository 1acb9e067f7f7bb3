#include "eval/adversarial.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "common/error.h"
#include "common/thread_pool.h"

namespace hdd::eval {

namespace {

struct Budget {
  double step = 0.0;  // epsilon * span, in feature units
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

// Feature spans: declared domain when finite, observed span otherwise.
// The observed fallback keeps raw-counter features attackable at all —
// their declared domain is [0, +inf).
std::vector<Budget> make_budgets(const smart::FeatureSet& features,
                                 double epsilon,
                                 const std::vector<float>& observed_lo,
                                 const std::vector<float>& observed_hi) {
  const auto domains = analysis::FeatureDomains::for_feature_set(features);
  std::vector<Budget> budgets(features.specs.size());
  for (std::size_t f = 0; f < budgets.size(); ++f) {
    const analysis::Interval& d = domains.bounds[f];
    Budget& b = budgets[f];
    b.lo = d.lo;
    b.hi = d.hi;
    double span;
    if (std::isfinite(d.lo) && std::isfinite(d.hi)) {
      span = d.hi - d.lo;
    } else {
      span = static_cast<double>(observed_hi[f]) -
             static_cast<double>(observed_lo[f]);
    }
    b.step = epsilon * std::max(span, 0.0);
  }
  return budgets;
}

// Greedy coordinate descent on one feature row. `dir` is +1 to push the
// output healthy (evade detection), -1 to push it failing (trigger an
// alarm). Returns the best output reached; `row` holds the adversarial
// point on return. Sets `moved` when any coordinate changed.
double descend(std::vector<float>& row, const SampleModel& model,
               const std::vector<Budget>& budgets, double dir, int passes,
               bool* moved) {
  double best = model(row);
  *moved = false;
  // The L-inf ball is centered on the sample as observed; later passes
  // re-probe the same ball (for cross-feature interactions), they do not
  // widen it.
  const std::vector<float> center = row;
  for (int pass = 0; pass < passes; ++pass) {
    if (dir * best > 0.0) break;  // sign already flipped: attack done
    bool improved = false;
    for (std::size_t f = 0; f < row.size(); ++f) {
      const Budget& b = budgets[f];
      if (b.step <= 0.0) continue;
      const double ball_lo =
          std::max(b.lo, static_cast<double>(center[f]) - b.step);
      const double ball_hi =
          std::min(b.hi, static_cast<double>(center[f]) + b.step);
      const float orig = row[f];
      float pick = orig;
      for (const double cand_raw : {ball_lo, ball_hi}) {
        const float cand = static_cast<float>(cand_raw);
        if (cand == orig) continue;
        row[f] = cand;
        const double v = model(row);
        if (dir * (v - best) > 0.0) {
          best = v;
          pick = cand;
        }
      }
      row[f] = pick;
      if (pick != orig) {
        improved = true;
        *moved = true;
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace

AdversarialResult adversarial_evaluate(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split,
                                       const smart::FeatureSet& features,
                                       const SampleModel& model,
                                       const AdversarialConfig& config) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  HDD_REQUIRE(config.passes >= 1, "adversarial passes must be >= 1");
  for (const double eps : config.epsilons) {
    HDD_REQUIRE(eps > 0.0 && eps <= 1.0,
                "adversarial epsilon must be in (0, 1]");
  }
  const auto jobs = holdout_jobs(dataset, split);
  const auto nf = features.specs.size();

  // Baseline pass; observed per-feature ranges ride along as the span
  // fallback for unbounded domains.
  std::vector<DriveScores> baseline(jobs.size());
  std::vector<std::vector<float>> job_lo(jobs.size()),
      job_hi(jobs.size());
  ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
    auto& lo = job_lo[j];
    auto& hi = job_hi[j];
    lo.assign(nf, std::numeric_limits<float>::max());
    hi.assign(nf, std::numeric_limits<float>::lowest());
    baseline[j] = score_record(
        dataset.drives[jobs[j].drive], jobs[j].begin, features,
        [&](std::span<const float> row) {
          for (std::size_t f = 0; f < nf; ++f) {
            lo[f] = std::min(lo[f], row[f]);
            hi[f] = std::max(hi[f], row[f]);
          }
          return model(row);
        });
  });
  std::vector<float> observed_lo(nf, 0.0f), observed_hi(nf, 0.0f);
  bool any = false;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (job_lo[j].empty() || job_lo[j][0] > job_hi[j][0]) continue;
    for (std::size_t f = 0; f < nf; ++f) {
      observed_lo[f] = any ? std::min(observed_lo[f], job_lo[j][f])
                           : job_lo[j][f];
      observed_hi[f] = any ? std::max(observed_hi[f], job_hi[j][f])
                           : job_hi[j][f];
    }
    any = true;
  }

  AdversarialResult result;
  result.baseline = evaluate_votes(baseline, config.vote);

  for (const double eps : config.epsilons) {
    const auto budgets =
        make_budgets(features, eps, observed_lo, observed_hi);
    AdversarialPoint point;
    point.epsilon = eps;

    // Each attack perturbs only its target population; the other side
    // keeps its baseline scores, so FDR/FAR shifts are attributable.
    for (const bool attack_failed : {true, false}) {
      std::vector<DriveScores> scores = baseline;
      std::vector<std::size_t> moved(jobs.size(), 0);
      const double dir = attack_failed ? +1.0 : -1.0;
      ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
        const auto& drive = dataset.drives[jobs[j].drive];
        if (drive.failed != attack_failed) return;
        // Every sample of the drive is descended before its output counts.
        scores[j] = score_record(
            drive, jobs[j].begin, features, [&](std::span<const float> x) {
              std::vector<float> row(x.begin(), x.end());
              bool row_moved = false;
              const double v = descend(row, model, budgets, dir,
                                       config.passes, &row_moved);
              if (row_moved) ++moved[j];
              return v;
            });
      });
      std::size_t total_moved = 0;
      for (const std::size_t m : moved) total_moved += m;
      if (attack_failed) {
        point.evade = evaluate_votes(scores, config.vote);
        point.evade_samples_moved = total_moved;
      } else {
        point.alarm = evaluate_votes(scores, config.vote);
        point.alarm_samples_moved = total_moved;
      }
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

analysis::Report robustness_findings(const AdversarialResult& result,
                                     const AdversarialConfig& config,
                                     const std::string& model_name) {
  analysis::Report report;
  auto format = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  const double base_fdr = result.baseline.fdr();
  const double base_far = result.baseline.far();
  bool detection_flagged = false;
  bool alarm_flagged = false;
  for (const AdversarialPoint& p : result.points) {
    const double fdr_drop = base_fdr - p.evade.fdr();
    if (!detection_flagged && fdr_drop >= config.fdr_drop_warn) {
      detection_flagged = true;
      report.diagnostics.push_back(
          {analysis::Severity::kWarning, model_name,
           "epsilon=" + format(p.epsilon), "fragile-detection",
           "a per-feature perturbation of " + format(p.epsilon * 100.0) +
               "% of the feature domain drops FDR from " +
               format(base_fdr) + " to " + format(p.evade.fdr()) +
               " — detection rests on feature excursions smaller than "
               "the budget"});
    }
    const double far_rise = p.alarm.far() - base_far;
    if (!alarm_flagged && far_rise >= config.far_rise_warn) {
      alarm_flagged = true;
      report.diagnostics.push_back(
          {analysis::Severity::kWarning, model_name,
           "epsilon=" + format(p.epsilon), "fragile-alarm",
           "a per-feature perturbation of " + format(p.epsilon * 100.0) +
               "% of the feature domain raises FAR from " +
               format(base_far) + " to " + format(p.alarm.far()) +
               " — healthy telemetry sits close to the alarm surface"});
    }
  }
  return report;
}

void print_text(const AdversarialResult& result, std::ostream& os) {
  os << "adversarial robustness (per-feature L-inf budgets)\n";
  os << "  baseline: FDR " << result.baseline.fdr() << "  FAR "
     << result.baseline.far() << '\n';
  os << "  epsilon   evade-FDR   dFDR     alarm-FAR   dFAR     moved\n";
  for (const AdversarialPoint& p : result.points) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-9.3g %-11.3f %-+8.3f %-11.3f %-+8.3f %zu/%zu\n",
                  p.epsilon, p.evade.fdr(),
                  p.evade.fdr() - result.baseline.fdr(), p.alarm.far(),
                  p.alarm.far() - result.baseline.far(),
                  p.evade_samples_moved, p.alarm_samples_moved);
    os << line;
  }
}

void print_json(const AdversarialResult& result, std::ostream& os) {
  os << "{\"baseline\":{\"fdr\":" << result.baseline.fdr()
     << ",\"far\":" << result.baseline.far() << "},\"points\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const AdversarialPoint& p = result.points[i];
    if (i > 0) os << ',';
    os << "{\"epsilon\":" << p.epsilon << ",\"evade_fdr\":" << p.evade.fdr()
       << ",\"alarm_far\":" << p.alarm.far()
       << ",\"evade_samples_moved\":" << p.evade_samples_moved
       << ",\"alarm_samples_moved\":" << p.alarm_samples_moved << '}';
  }
  os << "]}";
}

}  // namespace hdd::eval
