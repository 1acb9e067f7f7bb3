// Feature specifications and extraction.
//
// A feature is either the current level of a SMART attribute or its change
// rate over an interval ("the 6-hour change rate of Raw Read Error Rate").
// The paper evaluates three feature sets (Table III):
//   * basic12  — the twelve Table II attributes, levels only;
//   * expert19 — the nineteen features chosen by expertise in the authors'
//                previous work [11] (12 levels + 7 change rates);
//   * stat13   — the thirteen features chosen by the non-parametric
//                statistical pipeline of Section IV-B (9 normalized levels +
//                1 raw level + 3 six-hour change rates).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "smart/drive.h"

namespace hdd::smart {

struct FeatureSpec {
  Attr attr = Attr::kRawReadErrorRate;
  // 0 => current level; >0 => change rate over this many hours:
  // (x[t] - x[t - interval]) / interval, using the nearest sample at or
  // before t - interval.
  int change_interval_hours = 0;

  bool is_change_rate() const { return change_interval_hours > 0; }
  std::string name() const;

  friend bool operator==(const FeatureSpec&, const FeatureSpec&) = default;
};

struct FeatureSet {
  std::string name;
  std::vector<FeatureSpec> specs;

  int size() const { return static_cast<int>(specs.size()); }
};

// The three feature sets of Table III.
FeatureSet basic12_features();
FeatureSet expert19_features();
FeatureSet stat13_features();

// Extracts the feature vector for sample `index` of `drive`.
//
// Change rates need a past sample at least `interval` hours older; when the
// history is too short the rate is taken as 0 (the drive looked stable for
// as long as we could see), matching how a production collector would have
// to behave at the start of monitoring. Returns nullopt only if `index` is
// out of range.
std::optional<std::vector<float>> extract_features(const DriveRecord& drive,
                                                   std::size_t index,
                                                   const FeatureSet& fs);

// Writes the feature row of sample `index` into `row` (fs.size() floats, no
// bounds check) — the one-row primitive every extractor below shares; the
// fleet engine calls it per ingested sample.
void extract_features_row(const DriveRecord& drive, std::size_t index,
                          const FeatureSet& fs, float* row);

// Extracts features for samples [begin, end) row-major into `out` (appended;
// no per-row allocation) — the block-extraction path of the fleet-scoring
// engine. `end` must not exceed the record length.
void extract_features_block(const DriveRecord& drive, std::size_t begin,
                            std::size_t end, const FeatureSet& fs,
                            std::vector<float>& out);

// Extracts features for every sample whose hour lies in [from_hour, to_hour]
// (inclusive); appends row-major into `out` and the matching sample hours
// into `hours`. Returns the number of rows appended.
std::size_t extract_features_range(const DriveRecord& drive,
                                   std::int64_t from_hour,
                                   std::int64_t to_hour, const FeatureSet& fs,
                                   std::vector<float>& out,
                                   std::vector<std::int64_t>& hours);

}  // namespace hdd::smart
