#include "smart/features.h"

#include <algorithm>

#include "common/error.h"

namespace hdd::smart {

std::string FeatureSpec::name() const {
  const auto& info = attribute_info(attr);
  if (!is_change_rate()) return info.abbrev;
  return std::string(info.abbrev) + "_d" +
         std::to_string(change_interval_hours) + "h";
}

FeatureSet basic12_features() {
  FeatureSet fs;
  fs.name = "basic12";
  for (const auto& info : attribute_table()) {
    fs.specs.push_back({info.attr, 0});
  }
  return fs;
}

FeatureSet expert19_features() {
  // The 19 expertise-selected features of [11]: all twelve Table II levels
  // plus 24-hour change rates of the seven attributes an operator would
  // watch (error counters and mechanical health).
  FeatureSet fs;
  fs.name = "expert19";
  for (const auto& info : attribute_table()) {
    fs.specs.push_back({info.attr, 0});
  }
  for (Attr a : {Attr::kRawReadErrorRate, Attr::kReallocatedSectors,
                 Attr::kSeekErrorRate, Attr::kReportedUncorrectable,
                 Attr::kHardwareEccRecovered, Attr::kReallocatedSectorsRaw,
                 Attr::kCurrentPendingSectorRaw}) {
    fs.specs.push_back({a, 24});
  }
  return fs;
}

FeatureSet stat13_features() {
  // Section IV-B: 9 normalized levels + 1 raw level (Current Pending Sector
  // and its raw value excluded) + 6-hour change rates of Raw Read Error
  // Rate, Hardware ECC Recovered and Reallocated Sectors Count (raw value).
  FeatureSet fs;
  fs.name = "stat13";
  for (Attr a : {Attr::kRawReadErrorRate, Attr::kSpinUpTime,
                 Attr::kReallocatedSectors, Attr::kSeekErrorRate,
                 Attr::kPowerOnHours, Attr::kReportedUncorrectable,
                 Attr::kHighFlyWrites, Attr::kTemperatureCelsius,
                 Attr::kHardwareEccRecovered}) {
    fs.specs.push_back({a, 0});
  }
  fs.specs.push_back({Attr::kReallocatedSectorsRaw, 0});
  fs.specs.push_back({Attr::kRawReadErrorRate, 6});
  fs.specs.push_back({Attr::kHardwareEccRecovered, 6});
  fs.specs.push_back({Attr::kReallocatedSectorsRaw, 6});
  return fs;
}

namespace {

// Change rate of `attr` at sample `index`: difference to the nearest sample
// at or before (t - interval), normalized per hour. 0 when history is short.
float change_rate_at(const DriveRecord& drive, std::size_t index, Attr attr,
                     int interval_hours) {
  const Sample& now = drive.samples[index];
  const std::int64_t want = now.hour - interval_hours;
  const std::int64_t past_idx = drive.last_sample_at_or_before(want);
  if (past_idx < 0) return 0.0f;
  const Sample& past = drive.samples[static_cast<std::size_t>(past_idx)];
  const std::int64_t dt = now.hour - past.hour;
  if (dt <= 0) return 0.0f;
  return (now.value(attr) - past.value(attr)) / static_cast<float>(dt);
}

}  // namespace

void extract_features_row(const DriveRecord& drive, std::size_t index,
                          const FeatureSet& fs, float* row) {
  for (std::size_t f = 0; f < fs.specs.size(); ++f) {
    const FeatureSpec& spec = fs.specs[f];
    if (spec.is_change_rate()) {
      row[f] = change_rate_at(drive, index, spec.attr,
                              spec.change_interval_hours);
    } else {
      row[f] = drive.samples[index].value(spec.attr);
    }
  }
}

std::optional<std::vector<float>> extract_features(const DriveRecord& drive,
                                                   std::size_t index,
                                                   const FeatureSet& fs) {
  if (index >= drive.samples.size()) return std::nullopt;
  std::vector<float> row(fs.specs.size());
  extract_features_row(drive, index, fs, row.data());
  return row;
}

void extract_features_block(const DriveRecord& drive, std::size_t begin,
                            std::size_t end, const FeatureSet& fs,
                            std::vector<float>& out) {
  HDD_REQUIRE(!fs.specs.empty(), "empty feature set");
  HDD_REQUIRE(end <= drive.samples.size(),
              "feature block end past the record");
  if (begin >= end) return;
  const std::size_t base = out.size();
  out.resize(base + (end - begin) * fs.specs.size());
  float* row = out.data() + base;
  for (std::size_t i = begin; i < end; ++i, row += fs.specs.size()) {
    extract_features_row(drive, i, fs, row);
  }
}

std::size_t extract_features_range(const DriveRecord& drive,
                                   std::int64_t from_hour,
                                   std::int64_t to_hour, const FeatureSet& fs,
                                   std::vector<float>& out,
                                   std::vector<std::int64_t>& hours) {
  HDD_REQUIRE(!fs.specs.empty(), "empty feature set");
  std::size_t rows = 0;
  for (std::size_t i = 0; i < drive.samples.size(); ++i) {
    const std::int64_t h = drive.samples[i].hour;
    if (h < from_hour) continue;
    if (h > to_hour) break;
    const std::size_t base = out.size();
    out.resize(base + fs.specs.size());
    extract_features_row(drive, i, fs, out.data() + base);
    hours.push_back(h);
    ++rows;
  }
  return rows;
}

}  // namespace hdd::smart
