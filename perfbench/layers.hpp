#pragma once

/// \file layers.hpp
/// Per-layer figures of a traced repetition, read from the library's own
/// self-tracing: the StageStat rows analyze() and analyzeStreaming() attach
/// to PipelineResult::telemetry while a telemetry::Session is active, and
/// the spans the layers open inside those stages. Nothing of the pipeline
/// is re-run here, so the figures time the library's own code path.

#include <map>
#include <string>
#include <vector>

#include "unveil/analysis/pipeline.hpp"
#include "unveil/support/telemetry.hpp"

namespace perfbench {

/// Name of the span the driver opens around each traced repetition.
inline constexpr const char* kRootSpan = "perfbench.analyze";

/// Name of the span the driver opens around each foldingAccuracy() call.
inline constexpr const char* kAccuracySpan = "folding.accuracy";

/// Per-layer values of one traced repetition, keyed by metric name, plus
/// "traced_s" (the root span's wall time). \p results are the analyses made
/// under the one kRootSpan span of \p snapshot; counts are summed over
/// them. analysis.layer_coverage_pct is the share of the root span covered
/// by the pipeline stages and by the layer spans directly under the root.
[[nodiscard]] std::map<std::string, double> layerValues(
    const unveil::telemetry::Snapshot& snapshot,
    const std::vector<const unveil::analysis::PipelineResult*>& results);

}  // namespace perfbench
