#pragma once

/// \file probe.hpp
/// Measurement helpers of the benchmark driver: clocks, peak-RSS windows,
/// result digests and clustering quality.

#include <cstdint>
#include <vector>

#include "unveil/analysis/pipeline.hpp"

namespace perfbench {

/// Monotonic wall clock and whole-process CPU clock, in seconds.
[[nodiscard]] double wallSeconds();
[[nodiscard]] double cpuSeconds();

/// Peak-RSS window: returns freed heap to the kernel, then re-baselines
/// VmHWM at the current RSS through /proc/self/clear_refs. Throws when the
/// kernel interface is missing or VmHWM did not drop to RSS, so a set-up
/// peak is never reported as an analysis peak.
void resetPeakRss();
/// VmHWM (peak RSS since the last reset) and VmRSS, in MB.
[[nodiscard]] double peakRssMb();
[[nodiscard]] double rssMb();

/// FNV-1a digest of everything analyze() is contracted to reproduce bit
/// for bit: cluster labels, eps, period, refinement merges and the bytes
/// of every rate curve.
[[nodiscard]] std::uint64_t digest(const unveil::analysis::PipelineResult& r);

/// V-measure of the cluster labels against Burst::truthPhase, noise being
/// a label of its own.
[[nodiscard]] double vMeasure(const unveil::analysis::PipelineResult& r);

[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
