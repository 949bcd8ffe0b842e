#include "lifecycle/monitor.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "obs/json.h"

namespace flock::lifecycle {

std::string ModelMonitor::Key(const std::string& model) {
  return ToLower(model);
}

void ModelMonitor::InputSketch::Observe(double v) {
  if (std::isnan(v)) return;
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  mean += (v - mean) / static_cast<double>(count);
  if (++since_last_sample >= stride) {
    since_last_sample = 0;
    sample.push_back(v);
    if (sample.size() >= kSampleCapacity) {
      // Keep every second element; the survivors are spaced 2*stride
      // apart, so the sample stays uniform over the whole stream.
      size_t kept = 0;
      for (size_t i = 0; i < sample.size(); i += 2) {
        sample[kept++] = sample[i];
      }
      sample.resize(kept);
      stride *= 2;
    }
  }
}

double ModelMonitor::InputSketch::Quantile(double p) const {
  if (sample.empty()) return 0.0;
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void ModelMonitor::ObserveFeatures(const flock::ModelEntry& entry,
                                   const ml::Matrix& raw,
                                   size_t num_rows) {
  const std::string& owner =
      entry.base_name.empty() ? entry.name : entry.base_name;
  std::lock_guard<std::mutex> lock(mu_);
  ModelState& state = models_[Key(owner)];
  if (state.inputs.size() < raw.cols()) state.inputs.resize(raw.cols());
  if (state.train_mean.empty() && !entry.training_profile.empty()) {
    state.train_mean = entry.training_profile.mean;
    state.train_std = entry.training_profile.std;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    const double* row = raw.row(r);
    for (size_t c = 0; c < raw.cols(); ++c) {
      state.inputs[c].Observe(row[c]);
    }
  }
}

void ModelMonitor::RecordScores(const std::string& model,
                                const std::string& version_label,
                                const storage::RecordBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  ScoreAccumulator& hist = models_[Key(model)].scores[version_label];
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<storage::Value> row = batch.GetRow(r);
    for (const storage::Value& v : row) {
      if (v.is_null() || v.type() != storage::DataType::kDouble) continue;
      double score = v.double_value();
      if (std::isnan(score)) continue;
      ++hist.count;
      hist.sum += score;
      double clamped = std::clamp(score, 0.0, 1.0);
      size_t bucket = std::min(
          static_cast<size_t>(clamped * kScoreBuckets), kScoreBuckets - 1);
      ++hist.buckets[bucket];
    }
  }
}

double ModelMonitor::DriftScore(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(Key(model));
  if (it == models_.end()) return 0.0;
  const ModelState& state = it->second;
  double drift = 0.0;
  size_t n = std::min(state.inputs.size(), state.train_mean.size());
  for (size_t c = 0; c < n; ++c) {
    const InputSketch& sketch = state.inputs[c];
    if (sketch.count == 0) continue;
    double std_dev = c < state.train_std.size() ? state.train_std[c] : 0.0;
    if (std_dev <= 1e-12) continue;  // constant input: no scale to judge by
    drift = std::max(drift,
                     std::abs(sketch.mean - state.train_mean[c]) / std_dev);
  }
  return drift;
}

std::vector<FeatureSketchSnapshot> ModelMonitor::FeatureSketches(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FeatureSketchSnapshot> out;
  auto it = models_.find(Key(model));
  if (it == models_.end()) return out;
  const ModelState& state = it->second;
  out.reserve(state.inputs.size());
  for (size_t c = 0; c < state.inputs.size(); ++c) {
    const InputSketch& sketch = state.inputs[c];
    FeatureSketchSnapshot snap;
    snap.count = sketch.count;
    snap.min = sketch.min;
    snap.max = sketch.max;
    snap.mean = sketch.mean;
    snap.p50 = sketch.Quantile(0.50);
    snap.p95 = sketch.Quantile(0.95);
    if (c < state.train_mean.size()) {
      snap.train_mean = state.train_mean[c];
      snap.train_std =
          c < state.train_std.size() ? state.train_std[c] : 0.0;
      if (snap.train_std > 1e-12 && sketch.count > 0) {
        snap.drift = std::abs(sketch.mean - snap.train_mean) /
                     snap.train_std;
      }
    }
    out.push_back(snap);
  }
  return out;
}

ScoreHistogramSnapshot ModelMonitor::ScoreHistogram(
    const std::string& model, const std::string& version_label) const {
  std::lock_guard<std::mutex> lock(mu_);
  ScoreHistogramSnapshot snap;
  auto it = models_.find(Key(model));
  if (it == models_.end()) return snap;
  auto hit = it->second.scores.find(version_label);
  if (hit == it->second.scores.end()) return snap;
  snap.count = hit->second.count;
  snap.mean = hit->second.count > 0
                  ? hit->second.sum / static_cast<double>(hit->second.count)
                  : 0.0;
  snap.buckets = hit->second.buckets;
  return snap;
}

void ModelMonitor::Forget(const std::string& model) {
  std::lock_guard<std::mutex> lock(mu_);
  models_.erase(Key(model));
}

std::string ModelMonitor::StatusJson(const std::string& model) const {
  using obs::JsonNumber;
  using std::to_string;
  std::vector<FeatureSketchSnapshot> inputs = FeatureSketches(model);
  std::string out = "{\"inputs\":[";
  for (size_t c = 0; c < inputs.size(); ++c) {
    const FeatureSketchSnapshot& s = inputs[c];
    if (c > 0) out += ",";
    out += "{\"count\":" + to_string(s.count) +
           ",\"min\":" + JsonNumber(s.min) +
           ",\"max\":" + JsonNumber(s.max) +
           ",\"mean\":" + JsonNumber(s.mean) +
           ",\"p50\":" + JsonNumber(s.p50) +
           ",\"p95\":" + JsonNumber(s.p95) +
           ",\"train_mean\":" + JsonNumber(s.train_mean) +
           ",\"train_std\":" + JsonNumber(s.train_std) +
           ",\"drift\":" + JsonNumber(s.drift) + "}";
  }
  out += "],\"drift_score\":" + JsonNumber(DriftScore(model)) +
         ",\"scores\":{";
  bool first = true;
  for (const char* label : {"live", "candidate"}) {
    ScoreHistogramSnapshot hist = ScoreHistogram(model, label);
    if (!first) out += ",";
    first = false;
    out += std::string("\"") + label + "\":{\"count\":" +
           to_string(hist.count) + ",\"mean\":" + JsonNumber(hist.mean) +
           ",\"buckets\":[";
    for (size_t b = 0; b < hist.buckets.size(); ++b) {
      if (b > 0) out += ",";
      out += to_string(hist.buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace flock::lifecycle
