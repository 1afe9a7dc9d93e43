// Benchmark driver: generates one workload from a seed, times calls into
// the library's public functions, checks the results and prints one JSON
// line of metrics. See perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR [--smoke]

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "probe.hpp"
#include "unveil/analysis/experiments.hpp"
#include "unveil/analysis/pipeline.hpp"
#include "unveil/analysis/streaming.hpp"
#include "unveil/cluster/burst.hpp"
#include "unveil/folding/columnar.hpp"
#include "unveil/support/log.hpp"
#include "unveil/support/telemetry.hpp"
#include "unveil/support/thread_pool.hpp"
#include "unveil/trace/binary_io.hpp"
#include "unveil/trace/shard_stream.hpp"

namespace perfbench {
namespace {

namespace an = unveil::analysis;
namespace sim = unveil::sim;
namespace tr = unveil::trace;
namespace tm = unveil::telemetry;
using unveil::counters::CounterId;

/// Worker threads of every timed analysis: half of the 4 vCPUs the
/// benchmark was sized on, so a co-tenant's burst does not stall a worker.
constexpr std::size_t kThreads = 2;

/// One allocator set-up for the whole process: glibc's initial mmap and
/// trim thresholds (128 KiB), which a fresh `unveil analyze` process starts
/// with, held fixed. glibc would otherwise raise them towards 32 MiB as
/// the set-up frees large blocks, after which freed memory is reused in
/// an order that depends on thread timing: the same accuracy-3app seed
/// then peaked 24.6-26.9 MB above its inputs from process to process.
void fixAllocator() {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string workdir = ".";
};

struct Scale {
  tr::Rank ranks;
  std::uint32_t iterations;
};

// Full-size inputs, and the tiny ones --smoke substitutes.
Scale largeScale(bool smoke) { return smoke ? Scale{16, 30} : Scale{256, 400}; }
Scale fineRefScale(bool smoke) { return smoke ? Scale{4, 20} : Scale{16, 100}; }
Scale accuracyScale(bool smoke) { return smoke ? Scale{8, 30} : Scale{64, 150}; }
/// Independent realizations of the workload per untraced run, each its own
/// set-up: setup_s is their median and the quality metrics pool them, so
/// one seed's luck moves neither much. accuracy-3app's per-cluster errors
/// swing most between realizations, so it pools more of them.
int largeRealizations(bool smoke) { return smoke ? 1 : 3; }
int accuracyRealizations(bool smoke) { return smoke ? 1 : 5; }
std::uint64_t realizationSeed(const Options& o, int j) {
  return o.seed + 100000u * static_cast<std::uint64_t>(j);
}
/// Fewest timed repetitions per run, however short --seconds is.
int minReps(bool smoke) { return smoke ? 1 : 3; }

const std::vector<std::string> kAccuracyApps = {"wavesim", "nbsolver", "particlemesh"};

sim::apps::AppParams appParams(Scale s, std::uint64_t seed) {
  sim::apps::AppParams p;
  p.ranks = s.ranks;
  p.iterations = s.iterations;
  p.seed = seed;
  return p;
}

double fileMb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

/// Operations attempted and failed; a failure is printed as it happens.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cout << "FAILED: " << what << std::endl;
  }
  /// Runs \p op as one operation: a false result is a digest mismatch, and
  /// an exception counts as a failure too.
  bool run(const std::string& what, const std::function<bool()>& op) {
    try {
      const bool ok = op();
      check(ok, what + ": result digest differs from the reference");
      return ok;
    } catch (const std::exception& e) {
      check(false, what + ": " + e.what());
      return false;
    }
  }
  [[nodiscard]] double okPct() const {
    return attempted == 0 ? 0.0
                          : 100.0 * static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// Metric name -> (value, unit), printed as the run's last line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  void print(bool correct, const Tally& tally) const {
    std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
    bool first = true;
    char buf[128];
    for (const auto& [name, v] : values_) {
      std::snprintf(buf, sizeof buf, "%.17g", v.first);
      line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + v.second + "\"}";
      first = false;
    }
    line += "}}";
    std::cout << line << std::endl;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Per-repetition values, reduced to medians at the end of the run.
class Series {
 public:
  void add(const std::string& name, double v) { values_[name].push_back(v); }
  [[nodiscard]] double median(const std::string& name) const {
    return perfbench::median(values_.at(name));
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Repeats \p body for \p seconds, and at least minReps() times.
void repeatFor(const Options& o, const std::function<void()>& body) {
  const double end = wallSeconds() + o.seconds;
  int n = 0;
  do {
    body();
    ++n;
  } while (n < minReps(o.smoke) || wallSeconds() < end);
}

struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
  double peakMb = 0.0;  ///< Peak RSS above the RSS at the call's start.
};

/// One timed call. By default VmHWM is re-baselined first, so the call's
/// peak RSS is taken above what was resident when it started: its inputs
/// and the set-up's data and transient peak are excluded.
Timing timeCall(const std::function<void()>& call, bool reset = true) {
  if (reset) resetPeakRss();
  const double base = rssMb();
  const double w0 = wallSeconds();
  const double c0 = cpuSeconds();
  call();
  return {wallSeconds() - w0, cpuSeconds() - c0, peakRssMb() - base};
}

/// Quality of one or more analyses against the simulator's truth.
struct Quality {
  std::vector<double> vMeasure;
  std::size_t bursts = 0;
  std::size_t clustered = 0;
  std::vector<double> errTruth;
  std::vector<double> errFine;
  /// Per application: instance-weighted fine-grain error sum and
  /// instances, pooled over every analysis added.
  std::map<std::string, std::pair<double, double>> appFine;

  void addClustering(const an::PipelineResult& r) {
    vMeasure.push_back(perfbench::vMeasure(r));
    bursts += r.clustering.labels.size();
    clustered += r.clustering.labels.size() - r.clustering.noiseCount();
  }
  void addAccuracy(const std::string& app, const std::vector<an::ClusterAccuracy>& acc) {
    for (const auto& a : acc) {
      errTruth.push_back(a.vsTruthPercent);
      errFine.push_back(a.vsFinePercent);
      auto& [sum, weight] = appFine[app];
      sum += a.vsFinePercent * static_cast<double>(a.instances);
      weight += static_cast<double>(a.instances);
    }
  }
  [[nodiscard]] static double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  }
  void report(Metrics& m) const {
    if (errFine.empty()) throw std::runtime_error("no folded cluster to score");
    // The worst application. Single clusters swing by 2x between
    // realizations, so their maximum would gate nothing but luck.
    double worstApp = 0.0;
    for (const auto& [app, v] : appFine) worstApp = std::max(worstApp, v.first / v.second);
    m.set("v_measure", mean(vMeasure), "index");
    m.set("clustered_pct",
          100.0 * static_cast<double>(clustered) / static_cast<double>(bursts), "%");
    m.set("fold_err_truth_mean_pct", mean(errTruth), "%");
    m.set("fold_err_fine_mean_pct", mean(errFine), "%");
    m.set("fold_err_fine_max_pct", worstApp, "%");
  }
};

/// Set-up bookkeeping for the sim.* / trace.write* layer metrics.
struct SetupLog {
  double simulateS = 0.0;
  double samples = 0.0;
  double writeS = 0.0;
  double fileMb = 0.0;

  sim::RunResult simulate(const std::string& app, const sim::apps::AppParams& p,
                          const sim::MeasurementConfig& mc) {
    const double t0 = wallSeconds();
    auto run = an::runMeasured(app, p, mc);
    simulateS += wallSeconds() - t0;
    samples += static_cast<double>(run.trace.samples().size());
    return run;
  }
  void write(const tr::Trace& trace, const std::string& path) {
    const double t0 = wallSeconds();
    tr::writeBinaryFile(trace, path);
    writeS += wallSeconds() - t0;
    fileMb += perfbench::fileMb(path);
  }
  void report(Metrics& m) const {
    m.set("sim.simulate_s", simulateS, "s");
    m.set("sim.samples", samples, "count");
    m.set("trace.write_s", writeS, "s");
    m.set("trace.file_mb", fileMb, "MB");
  }
};

// ---------------------------------------------------------------------------
// Traced-run helpers shared by the workloads.

/// Runs \p body with a telemetry session active, under one kRootSpan span,
/// and returns the session's spans.
tm::Snapshot traced(const std::function<void()>& body) {
  tm::Session session;
  session.activate();
  {
    tm::Span root(kRootSpan);
    body();
  }
  session.deactivate();
  return session.snapshot();
}

/// Summed readBinaryFile figures over one or more files.
struct Decode {
  double wall = 0.0, cpu = 0.0, mb = 0.0, rss = 0.0;
  void add(const Timing& t, const std::string& path) {
    wall += t.wall;
    cpu += t.cpu;
    mb += fileMb(path);
    rss = std::max(rss, t.peakMb);
  }
  void addTo(std::map<std::string, double>& v) const {
    v["trace.decode_s"] = wall;
    v["trace.decode_cpu_s"] = cpu;
    v["trace.decode_mb_per_s"] = mb / wall;
    v["trace.decode_rss_mb"] = rss;
  }
};

/// readBinaryFile of each of \p paths, beside the traced call.
Decode decodeFiles(const std::vector<std::string>& paths) {
  Decode d;
  for (const auto& path : paths) d.add(timeCall([&] { (void)tr::readBinaryFile(path); }), path);
  return d;
}

/// SampleColumns::build on \p trace, with its peak RSS.
Timing columnsCall(const tr::Trace& trace) {
  return timeCall([&] {
    unveil::folding::SampleColumns columns;
    columns.build(trace);
  });
}

/// Adds one SampleColumns::build to the folding.columns_* values: times
/// add up, the peak is the largest.
void addColumns(std::map<std::string, double>& v, const Timing& t) {
  v["folding.columns_s"] += t.wall;
  v["folding.columns_rss_mb"] = std::max(v["folding.columns_rss_mb"], t.peakMb);
}

/// One ShardStreamReader pass over each of \p paths, beside the traced
/// call: trace.shard_decode_s and trace.shards.
void shardPass(std::map<std::string, double>& v, const std::vector<std::string>& paths) {
  double wall = 0.0, shards = 0.0;
  for (const auto& path : paths) {
    tr::ShardStreamReader reader(path);
    for (;;) {
      const double t0 = wallSeconds();
      const auto shard = reader.next();
      wall += wallSeconds() - t0;
      if (!shard) break;
      shards += 1.0;
    }
  }
  v["trace.shard_decode_s"] = wall;
  v["trace.shards"] = shards;
}

/// SampleColumns::build on every shard of \p path, as streaming pass B
/// builds them.
void shardColumns(std::map<std::string, double>& v, const std::string& path) {
  tr::ShardStreamReader reader(path);
  while (const auto shard = reader.next()) addColumns(v, columnsCall(shard->trace));
}

void addAll(Series& s, const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) s.add(name, value);
}

void reportLayers(Metrics& m, const Series& s, double untracedS, double oneThreadS) {
  const std::vector<std::pair<std::string, std::string>> layered = {
      {"trace.decode_s", "s"},          {"trace.decode_cpu_s", "s"},
      {"trace.decode_mb_per_s", "MB/s"}, {"trace.decode_rss_mb", "MB"},
      {"trace.shard_decode_s", "s"},    {"trace.shards", "count"},
      {"cluster.extract_s", "s"},       {"cluster.extract_cpu_s", "s"},
      {"cluster.bursts", "count"},      {"cluster.features_s", "s"},
      {"cluster.eps_s", "s"},           {"cluster.dbscan_s", "s"},
      {"cluster.cluster_cpu_s", "s"},   {"cluster.clusters", "count"},
      {"cluster.noise_pct", "%"},       {"cluster.structure_s", "s"},
      {"cluster.period", "count"},      {"cluster.merges", "count"},
      {"cluster.aggregate_s", "s"},     {"folding.columns_s", "s"},
      {"folding.columns_rss_mb", "MB"}, {"folding.fold_s", "s"},
      {"folding.fold_cpu_s", "s"},      {"folding.fold_points", "count"},
      {"folding.fold_clusters", "count"}, {"folding.fit_s", "s"},
      {"folding.fit_cpu_s", "s"},       {"folding.fit_curves", "count"},
      {"folding.fit_failed", "count"},  {"folding.accuracy_s", "s"},
      {"analysis.layer_coverage_pct", "%"},
  };
  for (const auto& [name, unit] : layered) m.set(name, s.median(name), unit);
  const double tracedS = s.median("traced_s");
  m.set("analysis.tracing_overhead_pct", 100.0 * (tracedS - untracedS) / untracedS, "%");
  m.set("analysis.speedup_2t", oneThreadS / untracedS, "x");
}

/// Runs \p call at one worker thread, then restores kThreads.
Timing timeOneThread(const std::function<void()>& call) {
  unveil::support::setGlobalThreads(1);
  const Timing t = timeCall(call);
  unveil::support::setGlobalThreads(kThreads);
  return t;
}

// ---------------------------------------------------------------------------
// batch-large and stream-large: one 256x400 wavesim trace written as UVTB2.

struct LargeInput {
  std::string path;
  /// Application of the trace, for the analytic truth curves.
  sim::RunResult coarse;
  /// Fine-grain wavesim run of the same seed at reference scale.
  sim::RunResult fine;
  /// Digest of the untimed batch warm-up: the result every later analysis
  /// of this file must reproduce bit for bit, streaming included
  /// (DESIGN.md section 14).
  std::uint64_t reference = 0;
};

LargeInput setupLarge(const Options& o, std::uint64_t seed, SetupLog& log) {
  LargeInput in;
  in.path = o.workdir + "/wavesim-" + std::to_string(seed) + ".uvtb";
  auto run = log.simulate("wavesim", appParams(largeScale(o.smoke), seed),
                          sim::MeasurementConfig::folding());
  log.write(run.trace, in.path);
  // Only the application is kept; the trace lives in the file.
  in.coarse.app = run.app;
  in.fine = log.simulate("wavesim", appParams(fineRefScale(o.smoke), seed),
                         sim::MeasurementConfig::fineGrain());
  return in;
}

std::vector<an::ClusterAccuracy> largeAccuracy(const LargeInput& in,
                                               const an::PipelineResult& r) {
  return an::foldingAccuracy(in.coarse, in.fine, r, CounterId::TotIns);
}

int runLarge(const Options& o, bool streaming) {
  Metrics metrics;
  Tally tally;
  const an::PipelineConfig config;  // the library default, as `unveil analyze`
  auto batch = [&](const std::string& path) {
    return an::analyze(tr::readBinaryFile(path), config);
  };
  auto analyzeOnce = [&](const std::string& path) {
    return streaming ? an::analyzeStreaming(path).result : batch(path);
  };
  const std::string what = streaming ? "analyzeStreaming" : "readBinaryFile+analyze";

  // Each realization is set up, warmed up (untimed) and scored in turn.
  // The files stay on disk and the timed calls cycle through them; the
  // fine-grain references are dropped once scored, except for the traced
  // run's single realization, whose accuracy call is timed.
  SetupLog setupLog;
  std::vector<LargeInput> inputs;
  std::vector<double> setupTimes;
  Quality quality;
  for (int j = 0; j < (o.traced ? 1 : largeRealizations(o.smoke)); ++j) {
    SetupLog log;
    const double t0 = wallSeconds();
    LargeInput in = setupLarge(o, realizationSeed(o, j), log);
    setupTimes.push_back(wallSeconds() - t0);
    const auto r = batch(in.path);
    in.reference = digest(r);
    quality.addClustering(r);
    quality.addAccuracy("wavesim", largeAccuracy(in, r));
    if (!o.traced) in.fine = {};
    if (j == 0) setupLog = log;
    inputs.push_back(std::move(in));
  }
  if (streaming)  // warm-up of the streaming path itself
    tally.run("warm-up " + what, [&] {
      return digest(analyzeOnce(inputs[0].path)) == inputs[0].reference;
    });

  if (!o.traced) {
    Series s;
    std::size_t next = 0;
    repeatFor(o, [&] {
      const LargeInput& in = inputs[next++ % inputs.size()];
      Timing t;
      const bool ok = tally.run(what + " on " + in.path, [&] {
        std::uint64_t d = 0;
        t = timeCall([&] { d = digest(analyzeOnce(in.path)); });
        return d == in.reference;
      });
      if (ok) {
        s.add("wall", t.wall);
        s.add("cpu", t.cpu);
        s.add("rss", t.peakMb);
      }
    });
    metrics.set("analyze_s", s.median("wall"), "s");
    metrics.set("analyze_cpu_s", s.median("cpu"), "s");
    metrics.set("peak_rss_mb", s.median("rss"), "MB");
    metrics.set("setup_s", median(setupTimes), "s");
    metrics.set("ok_ops_pct", tally.okPct(), "%");
    quality.report(metrics);
  } else {
    const LargeInput& in = inputs[0];
    Series s, u2, u1;
    tm::Snapshot last;
    repeatFor(o, [&] {
      an::PipelineResult untraced;
      const Timing t2 = timeCall([&] { untraced = analyzeOnce(in.path); });
      tally.check(digest(untraced) == in.reference, what + " at 2 threads");
      u2.add("wall", t2.wall);

      // The same call with the library's self-tracing on. On batch-large
      // the decode is timed from outside, inside the root span.
      an::PipelineResult result;
      tr::Trace decoded;
      Decode decode;
      resetPeakRss();
      last = traced([&] {
        if (streaming) {
          result = an::analyzeStreaming(in.path).result;
        } else {
          decode.add(timeCall([&] { decoded = tr::readBinaryFile(in.path); }, false), in.path);
          result = an::analyze(decoded, config);
        }
      });
      tally.check(digest(result) == in.reference, "traced " + what + " differs from analyze()");
      auto v = layerValues(last, {&result});

      // Layers this workload's own path does not take, or takes inside a
      // stage without a span of their own, measured beside it on the same
      // file, so every layer metric exists on every workload.
      if (streaming) {
        decode = decodeFiles({in.path});
        shardColumns(v, in.path);
      } else {
        addColumns(v, columnsCall(decoded));
        decoded = {};
        shardPass(v, {in.path});
      }
      decode.addTo(v);
      v["folding.accuracy_s"] = timeCall([&] { (void)largeAccuracy(in, untraced); }).wall;
      addAll(s, v);

      an::PipelineResult one;
      const Timing t1 = timeOneThread([&] { one = analyzeOnce(in.path); });
      tally.check(digest(one) == in.reference, what + " at 1 thread");
      u1.add("wall", t1.wall);
    });
    setupLog.report(metrics);
    reportLayers(metrics, s, u2.median("wall"), u1.median("wall"));
    tm::writeChromeTraceFile(last, o.workdir + "/spans-" + o.workload + ".json");
  }
  for (const auto& in : inputs) std::filesystem::remove(in.path);
  metrics.print(tally.failed == 0, tally);
  return 0;
}

// ---------------------------------------------------------------------------
// accuracy-3app: three apps at 64x150, coarse and fine-grain runs in memory.

struct AppRuns {
  std::string app;
  sim::RunResult coarse;
  sim::RunResult fine;
};

int runAccuracy(const Options& o) {
  Metrics metrics;
  Tally tally;
  const auto coarseMc = sim::MeasurementConfig::folding();
  // `unveil accuracy`'s configuration: the default one, with the coarse
  // measurement's own intrusion compensated.
  const an::PipelineConfig config = an::calibratedPipelineConfig(coarseMc);
  struct AppResult {
    std::uint64_t digest = 0;
    std::vector<an::ClusterAccuracy> accuracy;
  };
  auto score = [](const AppRuns& a, const an::PipelineResult& r) {
    return AppResult{digest(r), an::foldingAccuracy(a.coarse, a.fine, r, CounterId::TotIns)};
  };
  auto analyzeApp = [&](const AppRuns& a) {
    return score(a, an::analyze(a.coarse.trace, config));
  };
  auto sameAccuracy = [](const AppResult& a, const AppResult& b) {
    if (a.digest != b.digest || a.accuracy.size() != b.accuracy.size()) return false;
    for (std::size_t i = 0; i < a.accuracy.size(); ++i)
      if (a.accuracy[i].vsFinePercent != b.accuracy[i].vsFinePercent ||
          a.accuracy[i].vsTruthPercent != b.accuracy[i].vsTruthPercent)
        return false;
    return true;
  };

  // Each realization is set up, warmed up and scored in turn; only the
  // last one built, realization 0 (the seed itself), stays resident for the
  // timed calls. setup_s is the median over the realizations.
  SetupLog setupLog;
  std::vector<AppRuns> apps;
  std::vector<AppResult> reference;
  std::vector<double> setupTimes;
  Quality quality;
  for (int j = o.traced ? 0 : accuracyRealizations(o.smoke) - 1; j >= 0; --j) {
    SetupLog log;
    std::vector<AppRuns> runs;
    const double t0 = wallSeconds();
    for (const auto& app : kAccuracyApps) {
      const auto p = appParams(accuracyScale(o.smoke), realizationSeed(o, j));
      runs.push_back({app, log.simulate(app, p, coarseMc),
                      log.simulate(app, p, sim::MeasurementConfig::fineGrain())});
    }
    setupTimes.push_back(wallSeconds() - t0);
    std::vector<AppResult> scored;
    for (const auto& a : runs) {  // untimed warm-up
      const auto r = an::analyze(a.coarse.trace, config);
      scored.push_back(score(a, r));
      quality.addClustering(r);
      quality.addAccuracy(a.app, scored.back().accuracy);
    }
    if (j == 0) {
      setupLog = log;
      apps = std::move(runs);
      reference = std::move(scored);
    }
  }
  const double setupS = median(setupTimes);
  auto allApps = [&](std::vector<AppResult>& out) {
    out.clear();
    for (const auto& a : apps) out.push_back(analyzeApp(a));
  };
  auto sameAll = [&](const std::vector<AppResult>& got) {
    bool ok = got.size() == reference.size();
    for (std::size_t i = 0; ok && i < got.size(); ++i) ok = sameAccuracy(got[i], reference[i]);
    return ok;
  };
  auto checkAll = [&](const std::vector<AppResult>& got, const std::string& what) {
    tally.check(sameAll(got), what);
  };
  bool claimHolds = true;

  if (!o.traced) {
    Series s;
    repeatFor(o, [&] {
      std::vector<AppResult> got;
      Timing t;
      const bool ok = tally.run("analyze+foldingAccuracy", [&] {
        t = timeCall([&] { allApps(got); });
        return sameAll(got);
      });
      if (ok) {
        s.add("wall", t.wall);
        s.add("cpu", t.cpu);
        s.add("rss", t.peakMb);
      }
    });
    // The paper's claim, folded curves within 5 % of fine-grain sampling
    // on average; the smoke inputs are too small to hold it.
    const double meanFine = Quality::mean(quality.errFine);
    if (!o.smoke && meanFine >= 5.0) {
      claimHolds = false;
      std::cout << "FAILED: mean folding error against fine-grain is " << meanFine
                << " %, not below 5 %" << std::endl;
    }
    metrics.set("analyze_s", s.median("wall"), "s");
    metrics.set("analyze_cpu_s", s.median("cpu"), "s");
    metrics.set("peak_rss_mb", s.median("rss"), "MB");
    metrics.set("setup_s", setupS, "s");
    metrics.set("ok_ops_pct", tally.okPct(), "%");
    quality.report(metrics);
  } else {
    // The coarse traces as UVTB2 files, for the decode layer metrics.
    std::vector<std::string> paths;
    for (const auto& a : apps) {
      paths.push_back(o.workdir + "/" + a.app + "-" + std::to_string(o.seed) + ".uvtb");
      setupLog.write(a.coarse.trace, paths.back());
    }
    Series s, u2, u1;
    tm::Snapshot last;
    repeatFor(o, [&] {
      std::vector<AppResult> got;
      const Timing t2 = timeCall([&] { allApps(got); });
      checkAll(got, "analyze+foldingAccuracy at 2 threads");
      u2.add("wall", t2.wall);

      std::vector<an::PipelineResult> results;
      std::vector<AppResult> scored;
      last = traced([&] {
        for (const auto& a : apps) {
          results.push_back(an::analyze(a.coarse.trace, config));
          tm::Span span(kAccuracySpan);
          scored.push_back(score(a, results.back()));
        }
      });
      checkAll(scored, "traced analyze+foldingAccuracy differs from analyze()");
      std::vector<const an::PipelineResult*> ptrs;
      for (const auto& r : results) ptrs.push_back(&r);
      auto v = layerValues(last, ptrs);
      // Decode and columns, which this workload's path skips, measured
      // beside it on the same traces.
      decodeFiles(paths).addTo(v);
      shardPass(v, paths);
      for (const auto& a : apps) addColumns(v, columnsCall(a.coarse.trace));
      addAll(s, v);

      std::vector<AppResult> one;
      const Timing t1 = timeOneThread([&] { allApps(one); });
      checkAll(one, "analyze+foldingAccuracy at 1 thread");
      u1.add("wall", t1.wall);
    });
    setupLog.report(metrics);
    reportLayers(metrics, s, u2.median("wall"), u1.median("wall"));
    tm::writeChromeTraceFile(last, o.workdir + "/spans-" + o.workload + ".json");
    for (const auto& p : paths) std::filesystem::remove(p);
  }
  metrics.print(tally.failed == 0 && claimHolds, tally);
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload batch-large|stream-large|accuracy-3app"
               " --seed N --seconds S --trace 0|1 --workdir DIR [--smoke]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  fixAllocator();
  unveil::support::setLogLevel(unveil::support::LogLevel::ErrorLevel);
  unveil::support::setGlobalThreads(kThreads);
  try {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        o.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.traced = v == "1";
      else if (a == "--workdir") o.workdir = v;
      else return usage("unknown argument " + a);
    }
    std::filesystem::create_directories(o.workdir);
    if (o.workload == "batch-large") return runLarge(o, false);
    if (o.workload == "stream-large") return runLarge(o, true);
    if (o.workload == "accuracy-3app") return runAccuracy(o);
    return usage("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
