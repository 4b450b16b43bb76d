// perfbench: the repository benchmark. One binary, three workloads:
//
//   remote_fresh    fresh feature rows pipelined over loopback TCP
//   local_programs  in-process program submissions, with a resubmitted
//                   hot set
//   campaign        GEA size sweeps and PGD with the trained model, plus
//                   served verdicts on the crafted programs
//
// Every workload sets up (corpus, training, checkpoint, server) several
// times and reports the median, runs its serving phases and its attack
// phases, checks every output, and prints one JSON line last. Run through
// perfbench/run.py, which builds this binary and passes the fixed workload
// numbers from perfbench/workloads.json; see perfbench/README.md.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "gea/embed.hpp"
#include "kernels/config.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void print_ledger(const char* title, const Ledger& l, double units,
                  Report& report) {
  char line[200];
  const double u = std::max(1.0, units);
  std::snprintf(line, sizeof(line), "ledger: %s  units=%.0f  wall=%.4f ms/unit",
                title, units, l.wall_ms / u);
  report.notes.push_back(line);
  std::vector<LedgerRow> rows = l.rows;
  std::sort(rows.begin(), rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) { return a.self_ms > b.self_ms; });
  double sum = 0;
  for (const auto& r : rows) {
    sum += r.self_ms;
    std::snprintf(line, sizeof(line), "  %-22s %12.5f ms/unit %7.2f%%", r.name.c_str(),
                  r.self_ms / u, 100.0 * r.self_ms / std::max(1e-12, l.wall_ms));
    report.notes.push_back(line);
  }
  std::snprintf(line, sizeof(line), "  %-22s %12.5f ms/unit %7.2f%%", "(leftover)",
                l.leftover_ms / u, 100.0 * l.leftover_ms / std::max(1e-12, l.wall_ms));
  report.notes.push_back(line);
  std::snprintf(line, sizeof(line), "  %-22s %12.5f ms/unit (rows + leftover - wall = %.3g ms)",
                "(wall)", l.wall_ms / u, sum + l.leftover_ms - l.wall_ms);
  report.notes.push_back(line);
}

namespace {

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --fingerprint-dir DIR [--param key=value]...\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& fingerprint_dir) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--fingerprint-dir") {
      fingerprint_dir = v;
    } else if (a == "--param") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage("bad --param " + v);
      o.params.set(v.substr(0, eq), v.substr(eq + 1));
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!have_workload || o.work_dir.empty() || fingerprint_dir.empty() || o.seconds <= 0) {
    usage("missing arguments");
  }
  return o;
}

/// Served traffic for the workload, drawn from the seed.
Traffic make_traffic(const Options& opt, World& w) {
  const Params& p = opt.params;
  const std::size_t threads = kThreads;
  Traffic t;
  if (opt.workload == "remote_fresh") {
    // Fresh default-size programs in the Table I mix, never in training.
    t.remote = true;
    t.rows = fresh_inputs(opt.seed, p.count("pool"), 1.0, threads, false).rows;
    t.expected = w.expected_logits(t.rows);
  } else if (opt.workload == "local_programs") {
    t.programs = fresh_inputs(opt.seed, p.count("pool"), p.num("size_scale"), threads,
                              true).programs;
    t.hot = p.count("hot_set");
    t.hot_share = p.num("hot_share");
  } else {
    // The attacker's traffic: GEA-crafted programs, malicious sources with
    // benign grafts, pairs drawn from the seed.
    const auto& samples = w.corpus.samples();
    const auto benign = w.corpus.indices_of(dataset::kBenign);
    const auto malicious = w.corpus.indices_of(dataset::kMalicious);
    util::Rng rng(util::mix_seed(opt.seed, 77));
    std::vector<std::pair<std::size_t, std::size_t>> pairs(p.count("pool"));
    for (auto& pr : pairs) {
      pr.first = malicious[rng.next_u64() % malicious.size()];
      pr.second = benign[rng.next_u64() % benign.size()];
    }
    t.programs.resize(pairs.size());
    util::ParallelOptions po;
    po.threads = threads;
    auto st = util::parallel_for(
        pairs.size(),
        [&](std::size_t i) {
          t.programs[i] = aug::embed_with_cfg(samples[pairs[i].first].program,
                                              samples[pairs[i].second].program)
                              .program;
          return util::Status::ok();
        },
        po);
    if (!st.is_ok()) throw std::runtime_error(st.to_string());
  }
  if (!t.remote) {
    t.program_rows = featurize_programs(t.programs, threads);
    t.expected = w.expected_logits(t.program_rows);
  }
  // The batched oracle must agree with per-sample ModelClassifier::logits.
  const auto& raw = t.remote ? t.rows : t.program_rows;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < raw.size() && i < 64; ++i) {
    if (w.oracle->logits(w.scale(raw[i])) != t.expected[i]) ++differ;
  }
  if (differ != 0) throw std::runtime_error("batched oracle differs from ModelClassifier::logits");
  return t;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  std::string fingerprint_dir;
  Options opt = parse(argc, argv, fingerprint_dir);
  if (opt.workload != "remote_fresh" && opt.workload != "local_programs" &&
      opt.workload != "campaign") {
    usage("unknown workload " + opt.workload);
  }
  const Params& p = opt.params;
  // The compiled default kernel config, never a tuned file from the
  // environment, and never autotuned inside a run.
  if (!kernels::set_active_config(kernels::default_config()).is_ok()) {
    throw std::runtime_error("default kernel config refused");
  }
  std::filesystem::create_directories(opt.work_dir);
  std::filesystem::create_directories(fingerprint_dir);
  Report report;

  const std::size_t cores = nproc();
  const std::size_t threads = kThreads;
  {
    std::ostringstream s;
    s << "stamp: {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"nproc\": " << cores
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << threads << ", \"server_workers\": " << kServerWorkers
      << ", \"max_batch\": " << kMaxBatch
      << ", \"generator_threads\": " << (opt.workload == "remote_fresh" ? 1 : 2)
      << ", \"kernel_config\": \"" << kernels::active_config_summary() << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"scaling\": \"" << (threads > cores ? "not measured" : "measured") << "\"}";
    report.notes.push_back(s.str());
  }

  // Set-up, several times; the last world serves the run. Each set-up must
  // train the same model (fixed corpus, deterministic chunked trainer).
  const bool remote = opt.workload == "remote_fresh";
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  std::vector<std::vector<double>> probe_logits;
  SpanLog setup_log;
  const std::size_t reps = kSetupReps;
  for (std::size_t r = 0; r < reps; ++r) {
    world.reset();
    double s = 0;
    world = build_world(opt, remote, s, opt.trace && r + 1 == reps ? &setup_log : nullptr);
    setup_times.push_back(s);
    std::vector<std::vector<double>> probe;
    for (std::size_t i = 0; i < 8; ++i) {
      const auto& f = world->corpus.samples()[i].features;
      probe.push_back(world->oracle->logits(world->scale({f.begin(), f.end()})));
    }
    if (r == 0) {
      probe_logits = probe;
      for (const auto& z : probe) report.mix(z);
    }
    report.check(probe == probe_logits, "set-up is not deterministic across repeats");
  }

  const double t_traffic = now_s();
  Traffic traffic = make_traffic(opt, *world);
  const double t_serving = now_s();
  run_serving(opt, *world, traffic, p.num("serve_share"), report);
  const double t_craft = now_s();
  run_campaign(opt, *world, 1.0 - p.num("serve_share"), report);
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "phases: set-up x%zu %.2f s, inputs %.2f s, serving %.2f s, attacks %.2f s",
                  reps, t_traffic, t_serving - t_traffic, t_craft - t_serving,
                  now_s() - t_craft);
    report.notes.push_back(line);
  }
  world->transport.reset();
  world->server->stop();

  if (!opt.trace) {
    report.e2e("setup_s", util::median(setup_times), "s");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    const Ledger l = build_ledger(setup_log.spans());
    print_ledger("set-up", l, 1.0, report);
    report.layer("setup.corpus_s", l.row_ms("setup.corpus") / 1e3, "s");
    report.layer("setup.train_s", l.row_ms("setup.train") / 1e3, "s");
  }

  // The fingerprint covers only work whose size and inputs are fixed by
  // (workload, seed, seconds, trace); a rerun with the same four must
  // repeat it. The traced run serves open-loop windows, the untraced one
  // closed-loop windows, so the two have different fingerprints.
  {
    char name[128];
    std::snprintf(name, sizeof(name), "%s-seed%llu-s%g-t%d.txt", opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    const auto path = std::filesystem::path(fingerprint_dir) / name;
    const std::string mine = std::to_string(report.fingerprint);
    std::ifstream prev(path);
    std::string theirs;
    if (prev >> theirs) {
      report.check(theirs == mine, "fingerprint " + mine + " differs from an earlier run's " +
                                       theirs + " with the same seed");
    } else {
      std::ofstream(path) << mine << "\n";
    }
    report.notes.push_back("fingerprint: " + mine);
  }

  for (const auto& line : report.notes) std::printf("%s\n", line.c_str());
  if (!report.failures.empty()) {
    for (const auto& f : report.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    return 1;
  }
  const auto& metrics = opt.trace ? report.per_layer : report.end_to_end;
  std::printf("metrics (%s):\n", opt.trace ? "per layer, traced run" : "end to end, untraced run");
  for (const auto& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %16.6f %s  (failed %llu / attempted %llu)\n", "fail_share",
              report.attempted ? static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                               : 0.0,
              "share", static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
