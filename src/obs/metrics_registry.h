#ifndef FLOCK_OBS_METRICS_REGISTRY_H_
#define FLOCK_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/histogram.h"

namespace flock::obs {

/// One metric's current value, read by name through
/// MetricsRegistry::Read: counters and gauges fill `value` (exact below
/// 2^53), histograms fill `histogram`.
struct MetricReading {
  double value = 0.0;
  HistogramSnapshot histogram;
};

/// The engine-wide metric registry: one namespace for every subsystem's
/// counters, gauges and histograms, read through pull callbacks so the
/// hot paths keep their existing relaxed atomics and the registry adds
/// zero cost until someone actually asks for an exposition.
///
/// Naming scheme: dotted lowercase `subsystem.metric`
/// (`serve.requests_ok`, `plan_cache.hits`, `wal.records_appended`,
/// `policy.decisions`). The first dotted component groups the JSON
/// exposition and prefixes the Prometheus family name
/// (`flock_serve_requests_ok`).
///
/// Semantics: a *counter* is monotonically non-decreasing
/// (requests, bytes); a *gauge* is an instantaneous level (queue depth,
/// open sessions) and may use the floating-point variant for rates and
/// thresholds. Registration replaces any prior metric with the same
/// name (idempotent re-registration), and all methods are thread-safe.
class MetricsRegistry {
 public:
  using ValueFn = std::function<uint64_t()>;
  using ValueFnF = std::function<double()>;
  using HistogramFn = std::function<HistogramSnapshot()>;

  void RegisterCounter(const std::string& name, ValueFn fn);
  void RegisterGauge(const std::string& name, ValueFn fn);
  void RegisterGaugeF(const std::string& name, ValueFnF fn);
  void RegisterHistogram(const std::string& name, HistogramFn fn);

  size_t size() const;

  /// The structured read path for in-process readers (tests, benches):
  /// the current value of `name`, or nullopt when it is not registered.
  std::optional<MetricReading> Read(const std::string& name) const;

  /// Compact JSON, metrics grouped by subsystem prefix:
  ///   {"plan_cache": {"hits": 12, ...},
  ///    "serve": {"latency_ms": {"count": 3, "p50": 0.4, ...}, ...}}
  std::string ToJson() const;

  /// Prometheus-style text exposition: `# TYPE` lines, counters/gauges
  /// as `flock_<name> <value>`, histograms as `_count`, `_mean_ms` and
  /// `{quantile="..."}` sample lines.
  std::string ToPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kGaugeF, kHistogram };
  struct Metric {
    Kind kind = Kind::kCounter;
    ValueFn value;
    ValueFnF value_f;
    HistogramFn histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;  // sorted => stable expositions
};

}  // namespace flock::obs

#endif  // FLOCK_OBS_METRICS_REGISTRY_H_
