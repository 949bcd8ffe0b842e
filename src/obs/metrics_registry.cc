#include "obs/metrics_registry.h"

#include <cstdio>

#include "obs/json.h"

namespace flock::obs {

namespace {

/// A sample value in the Prometheus text format, which spells non-finite
/// values itself (JSON output goes through JsonNumber instead).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// "plan_cache.hits" -> {"plan_cache", "hits"}; no dot -> {"", name}.
std::pair<std::string, std::string> SplitSubsystem(const std::string& name) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

/// Prometheus family name: dots become underscores, `flock_` prefix.
std::string PromName(const std::string& name) {
  std::string out = "flock_";
  for (char c : name) out += (c == '.') ? '_' : c;
  return out;
}

}  // namespace

void MetricsRegistry::RegisterCounter(const std::string& name, ValueFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric m;
  m.kind = Kind::kCounter;
  m.value = std::move(fn);
  metrics_[name] = std::move(m);
}

void MetricsRegistry::RegisterGauge(const std::string& name, ValueFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric m;
  m.kind = Kind::kGauge;
  m.value = std::move(fn);
  metrics_[name] = std::move(m);
}

void MetricsRegistry::RegisterGaugeF(const std::string& name, ValueFnF fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric m;
  m.kind = Kind::kGaugeF;
  m.value_f = std::move(fn);
  metrics_[name] = std::move(m);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        HistogramFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric m;
  m.kind = Kind::kHistogram;
  m.histogram = std::move(fn);
  metrics_[name] = std::move(m);
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::optional<MetricReading> MetricsRegistry::Read(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) return std::nullopt;
  const Metric& metric = it->second;
  MetricReading reading;
  switch (metric.kind) {
    case Kind::kCounter:
    case Kind::kGauge:
      reading.value = static_cast<double>(metric.value ? metric.value() : 0);
      break;
    case Kind::kGaugeF:
      reading.value = metric.value_f ? metric.value_f() : 0.0;
      break;
    case Kind::kHistogram:
      if (metric.histogram) reading.histogram = metric.histogram();
      break;
  }
  return reading;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  std::string open_subsystem;
  bool any_subsystem = false;
  bool first_metric = true;
  for (const auto& [name, metric] : metrics_) {
    auto [subsystem, field] = SplitSubsystem(name);
    if (!any_subsystem || subsystem != open_subsystem) {
      if (any_subsystem) out += "}, ";
      out += "\"" + subsystem + "\": {";
      open_subsystem = subsystem;
      any_subsystem = true;
      first_metric = true;
    }
    if (!first_metric) out += ", ";
    first_metric = false;
    out += "\"" + field + "\": ";
    switch (metric.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        out += std::to_string(metric.value ? metric.value() : 0);
        break;
      case Kind::kGaugeF:
        out += JsonNumber(metric.value_f ? metric.value_f() : 0.0);
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h =
            metric.histogram ? metric.histogram() : HistogramSnapshot{};
        out += "{\"count\": " + std::to_string(h.count) +
               ", \"mean\": " + JsonNumber(h.mean) +
               ", \"p50\": " + JsonNumber(h.p50) +
               ", \"p95\": " + JsonNumber(h.p95) +
               ", \"p99\": " + JsonNumber(h.p99) + "}";
        break;
      }
    }
  }
  if (any_subsystem) out += "}";
  out += "}";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, metric] : metrics_) {
    const std::string prom = PromName(name);
    switch (metric.kind) {
      case Kind::kCounter:
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " +
               std::to_string(metric.value ? metric.value() : 0) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " +
               std::to_string(metric.value ? metric.value() : 0) + "\n";
        break;
      case Kind::kGaugeF:
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " +
               FormatDouble(metric.value_f ? metric.value_f() : 0.0) + "\n";
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h =
            metric.histogram ? metric.histogram() : HistogramSnapshot{};
        out += "# TYPE " + prom + " summary\n";
        out += prom + "_count " + std::to_string(h.count) + "\n";
        out += prom + "_mean_ms " + FormatDouble(h.mean) + "\n";
        out += prom + "{quantile=\"0.5\"} " + FormatDouble(h.p50) + "\n";
        out += prom + "{quantile=\"0.95\"} " + FormatDouble(h.p95) + "\n";
        out += prom + "{quantile=\"0.99\"} " + FormatDouble(h.p99) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace flock::obs
