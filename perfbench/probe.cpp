#include "probe.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "unveil/support/sampler.hpp"

namespace perfbench {

namespace an = unveil::analysis;

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  return static_cast<double>(unveil::support::processCpuNs()) * 1e-9;
}

namespace {

constexpr double kMb = 1024.0 * 1024.0;

}  // namespace

double peakRssMb() {
  return static_cast<double>(unveil::support::readMemoryStatus().hwmBytes) / kMb;
}

double rssMb() {
  return static_cast<double>(unveil::support::readMemoryStatus().rssBytes) / kMb;
}

void resetPeakRss() {
  malloc_trim(0);
  {
    std::ofstream f("/proc/self/clear_refs");
    if (f) f << "5";
    if (!f) throw std::runtime_error("cannot reset VmHWM: /proc/self/clear_refs not writable");
  }
  const auto m = unveil::support::readMemoryStatus();
  if (m.rssBytes == 0 || m.hwmBytes > m.rssBytes + (16u << 20))
    throw std::runtime_error("VmHWM did not re-baseline after clear_refs (rss " +
                             std::to_string(m.rssBytes) + " B, hwm " +
                             std::to_string(m.hwmBytes) + " B)");
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void range(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Entropy (nats) of a histogram with \p total entries.
template <typename Map>
double entropy(const Map& counts, double total) {
  double e = 0.0;
  for (const auto& [key, n] : counts) {
    const double p = static_cast<double>(n) / total;
    e -= p * std::log(p);
  }
  return e;
}

}  // namespace

std::uint64_t digest(const an::PipelineResult& r) {
  Fnv h;
  h.range(r.clustering.labels);
  h.value(r.clustering.numClusters);
  h.value(r.epsUsed);
  h.value(r.period.period);
  h.value(r.period.matchFraction);
  h.value(r.refinementMerges);
  for (const auto& c : r.clusters) {
    h.value(c.folded);
    for (const auto& [counter, curve] : c.rates) {
      h.value(counter);
      h.range(curve.t);
      h.range(curve.normRate);
      h.range(curve.physRate);
      h.value(curve.meanDurationNs);
      h.value(curve.meanTotal);
      h.value(curve.sourcePoints);
    }
  }
  return h.get();
}

double vMeasure(const an::PipelineResult& r) {
  const auto& labels = r.clustering.labels;
  const double n = static_cast<double>(labels.size());
  std::unordered_map<std::uint64_t, std::size_t> truth, cluster, joint;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::uint64_t c = static_cast<std::uint32_t>(labels[i]);
    const std::uint64_t k = r.bursts[i].truthPhase;
    ++truth[k];
    ++cluster[c];
    ++joint[(k << 32) | c];
  }
  const double hTruth = entropy(truth, n);
  const double hCluster = entropy(cluster, n);
  const double hJoint = entropy(joint, n);
  // H(truth | cluster) = H(joint) - H(cluster), and symmetrically.
  const double homogeneity = hTruth > 0.0 ? 1.0 - (hJoint - hCluster) / hTruth : 1.0;
  const double completeness = hCluster > 0.0 ? 1.0 - (hJoint - hTruth) / hCluster : 1.0;
  const double sum = homogeneity + completeness;
  return sum > 0.0 ? 2.0 * homogeneity * completeness / sum : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
