// Shared types of the benchmark driver: options, the span log, the report
// that becomes the final JSON line, and the set-up/phase entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "features/scaler.hpp"
#include "ml/model.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace gea;

/// Seconds on the steady clock since the first call in this process.
double now_s();
inline double now_us() { return now_s() * 1e6; }

// Harness settings, the same for every workload.
constexpr std::size_t kThreads = 4;  // craft and input threads: nproc of a 4-core box
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kFeatureCache = 256;
constexpr std::size_t kMaxInflightPerConn = 4096;
constexpr std::size_t kTrainMalicious = 540;  // Table I's class ratio
constexpr std::size_t kTrainBenign = 66;
constexpr std::size_t kTrainEpochs = 3;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMlReps = 15;       // private-stack timings per batch size
constexpr std::size_t kPgdSamples = 12;
constexpr std::size_t kGeaMaxSamples = 24;
// Serving, untraced: closed-loop windows of kClosedRequests requests with
// kInFlight in flight (enough to keep both workers' batches full while
// TransportServer's 1 ms poll notices completions).
constexpr std::size_t kClosedRequests = 2048;
constexpr std::size_t kInFlight = 256;
// Serving, traced: each block is a light window, a heavy window and
// kStairProbes goodput probes. A run has at least kMinBlocks closed-loop
// windows or blocks, and at least kMinRounds attack rounds, however short
// --seconds is.
constexpr std::size_t kMinBlocks = 3;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kStairProbes = 3;
constexpr double kWindowS = 0.5;
constexpr std::size_t kWindowMinRequests = 334;  // kMinBlocks windows: ten beyond p99
constexpr double kRungS = 0.5;
constexpr std::size_t kRungMinRequests = 1001;  // ten beyond p99
constexpr std::size_t kLadderRungs = 48;        // from light_rps, spanning 9.9x
constexpr double kLadderStep = 1.05;            // finer than every bound
constexpr double kP99LimitMs = 50.0;
constexpr double kMaxFailShare = 0.001;
constexpr double kMaxGrowthMs = 10.0;

/// Fixed workload numbers, passed by run.py as --param key=value from
/// perfbench/workloads.json. A missing key is a usage error.
class Params {
 public:
  void set(const std::string& key, const std::string& value) { kv_[key] = value; }
  double num(const std::string& key) const;
  std::size_t count(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch for the checkpoint
  Params params;
};

/// Spans of one phase. Threads append to private vectors and hand them in
/// with merge(); ids come from one shared counter.
class SpanLog {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void merge(std::vector<Span>& local) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), local.begin(), local.end());
    local.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Append [start, end) as a child of `parent`; returns its id.
  std::uint64_t add(std::vector<Span>& local, std::uint64_t parent,
                    const char* name, double start_us, double end_us) {
    const std::uint64_t id = next_id();
    local.push_back(Span{id, parent, name, start_us, end_us});
    return id;
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Correctness failures are collected and turn
/// the run into a nonzero exit without metrics.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;     // human-readable lines (stamp, tables)
  std::vector<std::string> failures;  // correctness-check failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 1469598103934665603ULL;  // FNV-1a 64 basis

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Order-sensitive fingerprint over raw bytes (FNV-1a 64).
  void mix(const void* data, std::size_t n);
  void mix(const std::vector<double>& xs) { mix(xs.data(), xs.size() * sizeof(double)); }
  void mix(std::uint64_t v) { mix(&v, sizeof(v)); }
};

/// Append a ledger's rows, per unit and as shares of wall time, to the
/// report's notes.
void print_ledger(const char* title, const Ledger& l, double units,
                  Report& report);

/// A trained, served detector plus the offline oracle that checks it.
struct World {
  dataset::Corpus corpus;  // training corpus
  std::string ckpt_dir;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::DetectionServer> server;
  std::unique_ptr<serve::TransportServer> transport;  // remote workloads only
  serve::CheckpointPtr offline;                       // oracle checkpoint
  ml::Model oracle_model;
  std::unique_ptr<ml::ModelClassifier> oracle;

  /// Raw features -> scaled row, exactly as the server scales it.
  std::vector<double> scale(const std::vector<double>& raw) const;
  /// Offline logits of raw feature rows (batched; row i is bitwise equal
  /// to ModelClassifier::logits on the scaled row, a library contract this
  /// benchmark also checks on a sample).
  std::vector<std::vector<double>> expected_logits(
      const std::vector<std::vector<double>>& raw_rows);
};

/// Set-up: synthesize + featurize the training corpus, train the Fig. 5
/// CNN for a fixed number of epochs, write and load the checkpoint, start
/// the server (and the transport when `remote`), and wait for the first
/// verdict. `setup_s` receives the wall time of all of it.
std::unique_ptr<World> build_world(const Options& opt, bool remote,
                                   double& setup_s, SpanLog* log);

/// Raw feature rows (cfg main_only, no cache) of `programs`, computed with
/// `threads` workers through the public cfg/features entry points.
std::vector<std::vector<double>> featurize_programs(
    const std::vector<isa::Program>& programs, std::size_t threads);

/// Raw feature rows (and, with keep_programs, the programs) of `total`
/// fresh samples in the Table I family mix, none of them in the training
/// corpus. Generated in `streams` independent seeded streams in parallel.
struct Fresh {
  std::vector<std::vector<double>> rows;
  std::vector<isa::Program> programs;
};
Fresh fresh_inputs(std::uint64_t seed, std::size_t total, double size_scale,
                   std::size_t streams, bool keep_programs);

/// What a workload serves, and how.
struct Traffic {
  bool remote = false;
  // Remote: raw feature rows, one per request, walked from a phase offset.
  std::vector<std::vector<double>> rows;
  // Local: programs; `hot` indexes the resubmitted hot set, the rest cycle.
  std::vector<isa::Program> programs;
  std::vector<std::vector<double>> program_rows;  // uncached offline features
  std::size_t hot = 0;
  double hot_share = 0.0;
  std::vector<std::vector<double>> expected;  // logits per row / program
};

/// The serving phases: for the untraced run, a goodput search on the ladder
/// and then blocks of light and heavy windows and staircase probes; for the
/// traced run, light and heavy windows untraced and then traced.
void run_serving(const Options& opt, World& world, Traffic& traffic,
                 double share, Report& report);

/// GEA size sweeps and PGD over the training corpus with the trained model,
/// on fixed inputs.
void run_campaign(const Options& opt, World& world, double share,
                  Report& report);

/// Per-layer timings of the served Fig. 5 stack, rebuilt from the public
/// layer classes and loaded from the checkpoint's model.bin.
struct LayerTimes {
  static constexpr std::size_t kGroups = 7;  // conv1..conv4, dense1, dense2, other
  static const char* group_name(std::size_t g);
  double ms[kGroups] = {};
};

class PrivateStack {
 public:
  /// Builds the stack and loads `model_bin`; checks its logits against the
  /// oracle bitwise on `probe` (scaled rows).
  PrivateStack(const std::string& model_bin, World& world,
               const std::vector<std::vector<double>>& probe, Report& report);
  ~PrivateStack();
  /// Median over `reps` of each group's Layer::infer time for a batch of
  /// `batch` scaled rows.
  LayerTimes infer_times(const std::vector<std::vector<double>>& rows,
                         std::size_t batch, std::size_t reps);
  /// Median over `reps` of each group's backward time at batch 1 (after a
  /// forward on the same row), as PGD's gradient step runs it.
  LayerTimes backward_times(const std::vector<std::vector<double>>& rows,
                            std::size_t reps);
  /// Forward flops of one sample, computed from the layer shapes.
  static double forward_flops(std::size_t input_dim, std::size_t classes);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resident-set peak of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
