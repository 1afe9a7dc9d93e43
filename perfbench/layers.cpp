#include "layers.hpp"

#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace an = unveil::analysis;
namespace tm = unveil::telemetry;

namespace {

constexpr double kNs = 1e-9;

/// The spans of one snapshot, with each span's parent looked up by id.
class Spans {
 public:
  explicit Spans(const tm::Snapshot& snapshot) : spans_(snapshot.spans) {
    for (const auto& s : spans_) byId_[s.id] = &s;
  }

  [[nodiscard]] std::string_view parentName(const tm::SpanRecord& s) const {
    const auto it = byId_.find(s.parentId);
    return it == byId_.end() ? std::string_view{} : std::string_view(it->second->name);
  }

  /// Summed seconds of the spans named \p name; with \p parent, only of
  /// those directly under a span named \p parent.
  [[nodiscard]] double seconds(std::string_view name, std::string_view parent = {}) const {
    double ns = 0.0;
    for (const auto& s : spans_)
      if (s.name == name && (parent.empty() || parentName(s) == parent))
        ns += static_cast<double>(s.durationNs);
    return ns * kNs;
  }

  [[nodiscard]] double count(std::string_view name) const {
    double n = 0.0;
    for (const auto& s : spans_) n += s.name == name ? 1.0 : 0.0;
    return n;
  }

  /// Summed integer attribute \p key of the spans named \p name.
  [[nodiscard]] double attrSum(std::string_view name, std::string_view key) const {
    double sum = 0.0;
    for (const auto& s : spans_)
      if (s.name == name)
        for (const auto& [k, v] : s.attrs)
          if (k == key) sum += std::stod(v);
    return sum;
  }

  [[nodiscard]] const tm::SpanRecord& only(std::string_view name) const {
    const tm::SpanRecord* found = nullptr;
    for (const auto& s : spans_) {
      if (s.name != name) continue;
      if (found) throw std::runtime_error("more than one span named " + std::string(name));
      found = &s;
    }
    if (!found) throw std::runtime_error("no span named " + std::string(name));
    return *found;
  }

  /// Seconds of the spans that cover \p root layer by layer: the stage
  /// spans under each pipeline.analyze* span, and every other span directly
  /// under the root (decode, accuracy scoring).
  [[nodiscard]] double covered(const tm::SpanRecord& root) const {
    auto isPipeline = [](std::string_view n) { return n.starts_with("pipeline.analyze"); };
    double ns = 0.0;
    for (const auto& s : spans_) {
      if (isPipeline(s.name)) continue;
      const auto parent = byId_.find(s.parentId);
      if (parent == byId_.end()) continue;
      if (parent->second == &root || isPipeline(parent->second->name))
        ns += static_cast<double>(s.durationNs);
    }
    return ns * kNs;
  }

 private:
  const std::vector<tm::SpanRecord>& spans_;
  std::unordered_map<std::uint64_t, const tm::SpanRecord*> byId_;
};

}  // namespace

std::map<std::string, double> layerValues(const tm::Snapshot& snapshot,
                                          const std::vector<const an::PipelineResult*>& results) {
  std::map<std::string, double> v;
  // Stage rows, as analyze() and analyzeStreaming() record them.
  std::map<std::string, std::pair<double, double>> stage;  // wall, cpu
  double bursts = 0.0, clusters = 0.0, noise = 0.0, period = 0.0, merges = 0.0;
  double foldClusters = 0.0, curves = 0.0;
  for (const an::PipelineResult* r : results) {
    if (r->telemetry.empty()) throw std::runtime_error("analysis recorded no stage telemetry");
    for (const auto& st : r->telemetry) {
      stage[st.name].first += static_cast<double>(st.wallNs) * kNs;
      stage[st.name].second += static_cast<double>(st.cpuNs) * kNs;
      if (st.name == "fold") foldClusters += static_cast<double>(st.items);
    }
    bursts += static_cast<double>(r->bursts.size());
    clusters += static_cast<double>(r->clustering.numClusters);
    noise += static_cast<double>(r->clustering.noiseCount());
    period += static_cast<double>(r->period.period);
    merges += static_cast<double>(r->refinementMerges);
    for (const auto& c : r->clusters) curves += static_cast<double>(c.rates.size());
  }
  auto stageWall = [&](const char* name) { return stage.at(name).first; };
  auto stageCpu = [&](const char* name) { return stage.at(name).second; };

  const Spans spans(snapshot);
  v["cluster.extract_s"] = stageWall("extract");
  v["cluster.extract_cpu_s"] = stageCpu("extract");
  v["cluster.bursts"] = bursts;
  v["cluster.features_s"] = stageWall("features");
  v["cluster.eps_s"] = spans.seconds("cluster.estimate_eps", "pipeline.cluster");
  // The clustering call the Auto mode picked, directly under the stage;
  // dbscanSampled's own inner dbscan is part of it.
  v["cluster.dbscan_s"] = spans.seconds("cluster.dbscan", "pipeline.cluster") +
                          spans.seconds("cluster.dbscan_sampled", "pipeline.cluster");
  v["cluster.cluster_cpu_s"] = stageCpu("cluster");
  v["cluster.clusters"] = clusters;
  v["cluster.noise_pct"] = 100.0 * noise / bursts;
  v["cluster.structure_s"] = stageWall("structure");
  v["cluster.period"] = period;
  v["cluster.merges"] = merges;
  v["cluster.aggregate_s"] = stageWall("aggregate");
  v["folding.fold_s"] = stageWall("fold");
  v["folding.fold_cpu_s"] = stageCpu("fold");
  v["folding.fold_clusters"] = foldClusters;
  v["folding.fold_points"] = spans.attrSum("fit.reconstruct", "points");
  v["folding.fit_s"] = stageWall("fit");
  v["folding.fit_cpu_s"] = stageCpu("fit");
  v["folding.fit_curves"] = curves;
  v["folding.fit_failed"] = spans.count("fit.reconstruct") - curves;
  v["folding.accuracy_s"] = spans.seconds(kAccuracySpan);
  v["trace.shard_decode_s"] = spans.seconds("trace.read_shard");
  v["trace.shards"] = spans.count("trace.read_shard");

  const tm::SpanRecord& root = spans.only(kRootSpan);
  const double rootS = static_cast<double>(root.durationNs) * kNs;
  v["traced_s"] = rootS;
  v["analysis.layer_coverage_pct"] = 100.0 * spans.covered(root) / rootS;
  return v;
}

}  // namespace perfbench
