#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace hdd::obs {

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  static thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine & (kShards - 1);
}

}  // namespace detail

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_key(const std::string& key) {
  return valid_metric_name(key) && key.find(':') == std::string::npos;
}

}  // namespace

const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

int Histogram::bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // <= 1, zero, negative and NaN
  if (v > bucket_le(kBuckets - 2)) return kBuckets - 1;  // incl. +inf
  const int e = std::ilogb(v);  // floor(log2 v); v > 1 => e >= 0
  return v == std::ldexp(1.0, e) ? e : e + 1;
}

double Histogram::bucket_le(int b) {
  if (b >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, b);
}

void Histogram::record(double v) {
  if (!enabled()) return;
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

Registry& Registry::global() {
  static Registry registry(true);
  return registry;
}

Registry::Entry& Registry::find_or_create(MetricType type,
                                          const std::string& name,
                                          const std::string& help,
                                          Labels labels) {
  HDD_REQUIRE(valid_metric_name(name),
              "metric name '" + name + "' is not Prometheus-compatible");
  for (const auto& [key, value] : labels) {
    (void)value;
    HDD_REQUIRE(valid_label_key(key),
                "label key '" + key + "' of metric '" + name +
                    "' is not Prometheus-compatible");
  }
  MutexLock lock(&mutex_);
  for (const auto& e : entries_) {
    if (e->name != name || e->labels != labels) continue;
    HDD_REQUIRE(e->type == type,
                "metric '" + name + "' already registered as " +
                    metric_type_name(e->type));
    return *e;
  }
  auto e = std::make_unique<Entry>();
  e->type = type;
  e->name = name;
  e->help = help;
  e->labels = std::move(labels);
  switch (type) {
    case MetricType::kCounter:
      e->c = std::unique_ptr<Counter>(new Counter(&enabled_));
      break;
    case MetricType::kGauge:
      e->g = std::unique_ptr<Gauge>(new Gauge(&enabled_));
      break;
    case MetricType::kHistogram:
      e->h = std::unique_ptr<Histogram>(new Histogram(&enabled_));
      break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  return *find_or_create(MetricType::kCounter, name, help, std::move(labels))
              .c;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  return *find_or_create(MetricType::kGauge, name, help, std::move(labels)).g;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help, Labels labels) {
  return *find_or_create(MetricType::kHistogram, name, help,
                         std::move(labels))
              .h;
}

std::size_t Registry::size() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  {
    MutexLock lock(&mutex_);
    snap.metrics.reserve(entries_.size());
    for (const auto& e : entries_) {
      MetricSnapshot m;
      m.name = e->name;
      m.help = e->help;
      m.type = e->type;
      m.labels = e->labels;
      switch (e->type) {
        case MetricType::kCounter:
          m.value = static_cast<double>(e->c->value());
          break;
        case MetricType::kGauge:
          m.value = e->g->value();
          break;
        case MetricType::kHistogram: {
          m.sum = e->h->sum();
          m.buckets.resize(Histogram::kBuckets);
          for (int b = 0; b < Histogram::kBuckets; ++b) {
            m.buckets[b] = e->h->bucket_count(b);
            m.count += m.buckets[b];
          }
          break;
        }
      }
      snap.metrics.push_back(std::move(m));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

}  // namespace hdd::obs
