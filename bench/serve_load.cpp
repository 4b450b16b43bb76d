// Load generator for the detection server, written to BENCH_serve.json.
//
// Sweeps worker count {1, 2, 8} x micro-batching {off (max_batch=1: each
// request a batch of one through Model::infer), on (max_batch=16, up to 16
// requests per Model::infer)} under a closed loop (48 synchronous clients,
// or --threads N, each submit->wait), then runs one open-loop stage that
// offers ~2x the measured capacity to exercise admission control: the
// overflow must show up as fast kUnavailable rejections, never as client
// hangs or queue growth.
//
// The headline number is batched_speedup_8w: closed-loop QPS with batching
// on vs off at 8 workers. Batching never changes verdicts (a batch's rows
// are bitwise-identical to the same rows inferred alone;
// tests/serve_test.cpp), so this is pure throughput.
//
// With --loopback the closed loop is repeated over the real wire: a
// TransportServer on 127.0.0.1 with one RemoteClient per client thread,
// reported as loopback_slowdown_8w (in-process QPS / loopback QPS). With
// --chaos the loopback run repeats with all five net.* fault points armed
// probabilistically; the gate is zero crashes and a bounded error rate
// (>= 90% of requests still produce a verdict through retry/quarantine).
//
// The loopback/chaos stages also host the live admin plane: an AdminServer
// wired to the DetectionServer, TransportServer and an SloMonitor, scraped
// over real HTTP *while the load runs*. The scrape bodies are written to
// ADMIN_*.{prom,txt} next to BENCH_serve.json, a /metrics exemplar trace id
// is cross-checked against /tracez (the Prometheus<->trace join), and the
// chaos stage must drive the SLO monitor degraded (readyz 503) and back to
// healthy once the faults clear — slo_degraded_observed / slo_recovered in
// the JSON gate that cycle.
//
// With --family the binary instead runs the continuous-learning family-
// classification scenario (train the K-class family CNN, prove chunked-
// retrain determinism, run targeted GEA over the schema, and hot-swap a
// retrained schema-tagged checkpoint under live traffic with zero dropped
// requests), written to BENCH_family.json.
//
//   $ ./bench/serve_load [--smoke] [--loopback] [--chaos] [--family]
//                        [--threads N] [--admin-port P] [--admin-linger-ms T]
#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dataset/corpus.hpp"
#include "dataset/labels.hpp"
#include "features/scaler.hpp"
#include "gea/harness.hpp"
#include "kernels/config.hpp"
#include "ml/metrics.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "net/socket.hpp"
#include "serve/admin.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/slo.hpp"
#include "serve/transport.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;

constexpr std::size_t kDim = features::kNumFeatures;

std::vector<double> synthetic_row(util::Rng& rng) {
  std::vector<double> row(kDim);
  for (auto& v : row) v = rng.uniform(0.0, 50.0);
  return row;
}

/// Random-init paper CNN + fitted scaler: serving cost does not depend on
/// the weight values, so the bench skips training entirely.
std::string write_bench_checkpoint() {
  util::Rng weight_rng(1), dropout_rng(0), data_rng(7);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);
  std::vector<features::FeatureVector> rows;
  for (int i = 0; i < 64; ++i) {
    features::FeatureVector fv{};
    const auto row = synthetic_row(data_rng);
    std::copy(row.begin(), row.end(), fv.begin());
    rows.push_back(fv);
  }
  features::FeatureScaler scaler;
  scaler.fit(rows);
  const auto dir =
      (std::filesystem::temp_directory_path() / "gea_serve_bench").string();
  std::filesystem::remove_all(dir);
  auto st = serve::Checkpoint::write(dir, model, &scaler);
  if (!st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    std::exit(1);
  }
  return dir;
}

struct RunResult {
  std::string mode;
  std::size_t workers = 0;
  std::size_t max_batch = 0;
  std::size_t clients = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_batch = 0.0;
  // Wire-path extras (loopback/chaos modes only).
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t shed = 0;
};

serve::ServerConfig server_config(std::size_t workers, std::size_t max_batch,
                                  std::size_t queue_capacity) {
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.max_batch = max_batch;
  // A generous linger: with many workers racing one queue, a short window
  // fragments batches (each worker grabs a couple of requests); 1 ms is
  // still well under the per-batch inference cost, so it buys batch size
  // without adding visible latency.
  cfg.max_wait_us = 1000;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// Closed loop: `clients` threads, each submit->wait `per_client` times.
RunResult run_closed(serve::ModelRegistry& registry, std::size_t workers,
                     std::size_t max_batch, std::size_t clients,
                     std::size_t per_client,
                     const std::vector<std::vector<double>>& rows) {
  serve::DetectionServer server(
      registry, server_config(workers, max_batch, clients * 2));

  util::LatencyRecorder latency;
  std::mutex latency_mu;
  std::atomic<std::uint64_t> rejected{0};
  util::Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        auto r = server.detect(rows[(c * per_client + i) % rows.size()]);
        if (r.is_ok()) {
          local.push_back(r.value().total_ms);
        } else {
          rejected.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      for (double v : local) latency.record(v);
    });
  }
  for (auto& t : pool) t.join();
  const double wall_s = wall.elapsed_ms() / 1000.0;
  server.stop();
  const auto snap = server.stats();

  RunResult res;
  res.mode = "closed";
  res.workers = workers;
  res.max_batch = max_batch;
  res.clients = clients;
  res.completed = snap.completed;
  res.rejected = rejected.load();
  res.wall_s = wall_s;
  res.qps = wall_s > 0 ? static_cast<double>(snap.completed) / wall_s : 0.0;
  const auto lat = latency.summarize();
  res.p50_ms = lat.p50;
  res.p95_ms = lat.p95;
  res.p99_ms = lat.p99;
  res.mean_batch = snap.mean_batch();
  return res;
}

/// Open loop: one dispatcher offers `total` requests at a fixed rate
/// without waiting for verdicts; admission control absorbs the overload.
RunResult run_open(serve::ModelRegistry& registry, std::size_t workers,
                   std::size_t max_batch, double offered_qps,
                   std::size_t total,
                   const std::vector<std::vector<double>>& rows) {
  serve::DetectionServer server(registry,
                                server_config(workers, max_batch, 64));

  const auto interval = std::chrono::duration<double, std::micro>(
      offered_qps > 0 ? 1e6 / offered_qps : 0.0);
  std::vector<std::future<util::Result<serve::Verdict>>> futures;
  futures.reserve(total);
  util::Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    futures.push_back(server.submit(rows[i % rows.size()]));
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * static_cast<double>(i + 1)));
  }
  util::LatencyRecorder latency;
  std::uint64_t rejected = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.is_ok()) {
      latency.record(r.value().total_ms);
    } else {
      ++rejected;
    }
  }
  const double wall_s = wall.elapsed_ms() / 1000.0;
  server.stop();
  const auto snap = server.stats();

  RunResult res;
  res.mode = "open";
  res.workers = workers;
  res.max_batch = max_batch;
  res.clients = 1;
  res.completed = snap.completed;
  res.rejected = rejected;
  res.wall_s = wall_s;
  res.qps = wall_s > 0 ? static_cast<double>(snap.completed) / wall_s : 0.0;
  const auto lat = latency.summarize();
  res.p50_ms = lat.p50;
  res.p95_ms = lat.p95;
  res.p99_ms = lat.p99;
  res.mean_batch = snap.mean_batch();
  return res;
}

/// One blocking HTTP/1.0 GET against the in-process admin plane. Returns
/// the full response text (status line + headers + body) or nullopt on any
/// socket error/timeout — the bench treats a failed scrape as a miss, not
/// a crash.
std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& target,
                                    int timeout_ms = 2000) {
  auto sock = net::connect_to("127.0.0.1", port, timeout_ms);
  if (!sock.is_ok()) return std::nullopt;
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  util::Stopwatch sw;
  while (sent < req.size()) {
    auto io = sock.value().write_some(
        reinterpret_cast<const std::uint8_t*>(req.data()) + sent,
        req.size() - sent);
    if (!io.ok() || io.eof) return std::nullopt;
    sent += io.bytes;
    if (io.would_block) {
      if (sw.elapsed_ms() > timeout_ms) return std::nullopt;
      (void)sock.value().poll_one(POLLOUT, 10);
    }
  }
  std::string out;
  std::uint8_t buf[4096];
  for (;;) {
    auto io = sock.value().read_some(buf, sizeof buf);
    if (!io.ok()) return std::nullopt;
    if (io.bytes > 0) out.append(reinterpret_cast<char*>(buf), io.bytes);
    if (io.eof) break;  // close-after-response: EOF delimits the body
    if (io.would_block) {
      if (sw.elapsed_ms() > timeout_ms) return std::nullopt;
      (void)sock.value().poll_one(POLLIN, 10);
    }
  }
  return out;
}

/// What the in-bench admin scrapes observed (merged into BENCH_serve.json).
struct AdminReport {
  std::uint64_t scrapes = 0;       // successful GET /metrics under load
  double scrape_p50_ms = 0.0;      // median /metrics latency under load
  int endpoints_ok = 0;            // of the 5 endpoints, answered 200/503
  bool exemplar_joined = false;    // /metrics exemplar id found in /tracez
  int slo_degraded_observed = 0;   // chaos: /readyz flipped to 503-degraded
  int slo_recovered = 0;           // ...and back to 200 after faults cleared
};

void save_admin_body(const char* path, const std::optional<std::string>& r) {
  if (!r) return;
  std::ofstream out(path);
  out << *r;
}

/// All exemplar trace ids in a Prometheus exposition
/// ("... # {trace_id=\"<16 hex>\"} ...").
std::vector<std::string> exemplar_ids(const std::string& metrics) {
  std::vector<std::string> ids;
  const std::string key = "# {trace_id=\"";
  for (auto pos = metrics.find(key); pos != std::string::npos;
       pos = metrics.find(key, pos + 1)) {
    const auto start = pos + key.size();
    const auto end = metrics.find('"', start);
    if (end == std::string::npos) break;
    ids.push_back(metrics.substr(start, end - start));
  }
  return ids;
}

/// Closed loop over the real wire: a TransportServer on loopback with one
/// RemoteClient per client thread. With `chaos`, all five net.* fault
/// points are armed probabilistically (deterministic seeds) on the server
/// side; clients must recover through retry/backoff, the server through
/// quarantine/shed/timeout — crashing or hanging is the only failure.
/// With `admin` non-null, the run hosts the live admin plane and scrapes
/// it over HTTP while the load is in flight.
RunResult run_loopback(serve::ModelRegistry& registry, std::size_t workers,
                       std::size_t max_batch, std::size_t clients,
                       std::size_t per_client,
                       const std::vector<std::vector<double>>& rows,
                       bool chaos, double* ok_fraction_out,
                       AdminReport* admin = nullptr,
                       std::uint16_t admin_port = 0,
                       double admin_linger_ms = 0.0) {
  serve::DetectionServer server(
      registry, server_config(workers, max_batch, clients * 2));

  // An SLO window tight enough for a smoke-length chaos stage to fill and
  // trip: ~2s of traffic, a verdict after 30 requests, and — in chaos mode
  // — an error budget well under the armed faults' quarantine rate, so the
  // monitor must degrade while the faults run and recover once they clear.
  serve::SloConfig scfg;
  scfg.window_s = 2.0;
  scfg.buckets = 8;
  scfg.min_requests = 30;
  if (chaos) scfg.max_error_fraction = 0.002;
  serve::SloMonitor slo(scfg);

  serve::TransportConfig tcfg;
  tcfg.fault_injection = chaos;
  if (chaos) tcfg.read_timeout_ms = 250.0;  // mop up desyncs fast
  if (admin != nullptr) tcfg.slo = &slo;
  serve::TransportServer transport(server, tcfg);
  if (auto st = transport.start(); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    std::exit(1);
  }

  std::optional<serve::AdminServer> admin_server;
  if (admin != nullptr) {
    serve::AdminConfig acfg;
    acfg.port = admin_port;
    admin_server.emplace(acfg,
                         serve::AdminHooks{&server, &transport, &slo});
    if (auto st = admin_server->start(); !st.is_ok()) {
      std::fprintf(stderr, "admin: %s\n", st.to_string().c_str());
      std::exit(1);
    }
    std::printf("admin plane on 127.0.0.1:%u\n", admin_server->port());
  }

  if (chaos) {
    auto& inj = util::FaultInjector::instance();
    inj.arm_random(util::faults::kNetAcceptFail, 0.10, 101);
    inj.arm_random(util::faults::kNetReadShort, 0.01, 102);
    inj.arm_random(util::faults::kNetFrameCorrupt, 0.02, 103);
    inj.arm_random(util::faults::kNetWriteStall, 0.02, 104);
    inj.arm_random(util::faults::kNetConnDrop, 0.01, 105);
  }

  util::LatencyRecorder latency;
  std::mutex latency_mu;
  std::atomic<std::uint64_t> ok{0}, failed{0}, retries{0};
  std::atomic<bool> load_running{true};

  // Scrape the admin plane over real HTTP while the load is in flight —
  // the point is that introspection works *under* load, not after it.
  std::thread scraper;
  std::vector<double> scrape_ms;
  if (admin != nullptr) {
    scraper = std::thread([&] {
      const std::uint16_t aport = admin_server->port();
      while (load_running.load(std::memory_order_relaxed)) {
        util::Stopwatch sw;
        if (auto r = http_get(aport, "/metrics"); r) {
          scrape_ms.push_back(sw.elapsed_ms());
        }
        if (chaos && admin->slo_degraded_observed == 0) {
          if (auto r = http_get(aport, "/readyz");
              r && r->rfind("HTTP/1.0 503", 0) == 0 &&
              r->find("slo: degraded") != std::string::npos) {
            admin->slo_degraded_observed = 1;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  util::Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      serve::ClientConfig ccfg;
      ccfg.port = transport.port();
      ccfg.request_timeout_ms = 2'000.0;
      ccfg.max_retries = chaos ? 5 : 3;
      ccfg.jitter_seed = 0x6a17 + c;
      serve::RemoteClient client(ccfg);
      std::vector<double> local;
      local.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        util::Stopwatch sw;
        auto r = client.detect(rows[(c * per_client + i) % rows.size()]);
        if (r.is_ok()) {
          local.push_back(sw.elapsed_ms());  // client-observed, wire included
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
      retries.fetch_add(client.stats().retries);
      std::lock_guard<std::mutex> lock(latency_mu);
      for (double v : local) latency.record(v);
    });
  }
  for (auto& t : pool) t.join();
  const double wall_s = wall.elapsed_ms() / 1000.0;
  load_running.store(false);
  if (scraper.joinable()) scraper.join();
  if (chaos) util::FaultInjector::instance().reset();

  if (admin != nullptr) {
    const std::uint16_t aport = admin_server->port();
    // Under-load scrape summary.
    admin->scrapes = scrape_ms.size();
    if (!scrape_ms.empty()) {
      admin->scrape_p50_ms = util::median(scrape_ms);
    }
    if (chaos && admin->slo_degraded_observed != 0) {
      // Faults are gone; a clean trickle must bring /readyz back to 200
      // (the window drains and the burn rate collapses).
      serve::ClientConfig ccfg;
      ccfg.port = transport.port();
      serve::RemoteClient client(ccfg);
      util::Stopwatch recover;
      while (recover.elapsed_ms() < 8'000.0) {
        (void)client.detect(rows[0]);
        if (auto r = http_get(aport, "/readyz");
            r && r->rfind("HTTP/1.0 200", 0) == 0) {
          admin->slo_recovered = 1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    // Final pass over all five endpoints; bodies land next to the JSON so
    // CI can archive exactly what the plane served.
    const auto metrics = http_get(aport, "/metrics");
    const auto healthz = http_get(aport, "/healthz");
    const auto readyz = http_get(aport, "/readyz");
    const auto tracez = http_get(aport, "/tracez");
    const auto statusz = http_get(aport, "/statusz");
    save_admin_body("ADMIN_metrics.prom", metrics);
    save_admin_body("ADMIN_healthz.txt", healthz);
    save_admin_body("ADMIN_readyz.txt", readyz);
    save_admin_body("ADMIN_tracez.txt", tracez);
    save_admin_body("ADMIN_statusz.txt", statusz);
    for (const auto* r : {&metrics, &healthz, &readyz, &tracez, &statusz}) {
      if (r->has_value() && (*r)->find("HTTP/1.0") == 0) ++admin->endpoints_ok;
    }
    // The Prometheus<->trace join: an exemplar trace id on a histogram
    // bucket must name a trace /tracez can show. Join against the widest
    // view of the ring (exemplars are slowest-wins, so the very slowest
    // may predate the default 16-trace window).
    if (metrics) {
      const auto wide = http_get(aport, "/tracez?limit=4096");
      if (wide) {
        for (const auto& id : exemplar_ids(*metrics)) {
          if (wide->find(id) != std::string::npos) {
            admin->exemplar_joined = true;
            break;
          }
        }
      }
    }
    if (admin_linger_ms > 0.0) {
      std::printf("admin plane lingering %.0f ms on 127.0.0.1:%u ...\n",
                  admin_linger_ms, aport);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(admin_linger_ms));
    }
    admin_server->stop();
  }

  transport.stop();
  const auto net = transport.stats();
  server.stop();

  const std::uint64_t total = ok.load() + failed.load();
  if (ok_fraction_out) {
    *ok_fraction_out =
        total > 0 ? static_cast<double>(ok.load()) / total : 0.0;
  }

  RunResult res;
  res.mode = chaos ? "chaos" : "loopback";
  res.workers = workers;
  res.max_batch = max_batch;
  res.clients = clients;
  res.completed = ok.load();
  res.rejected = failed.load();
  res.wall_s = wall_s;
  res.qps = wall_s > 0 ? static_cast<double>(ok.load()) / wall_s : 0.0;
  const auto lat = latency.summarize();
  res.p50_ms = lat.p50;
  res.p95_ms = lat.p95;
  res.p99_ms = lat.p99;
  res.mean_batch = server.stats().mean_batch();
  res.retries = retries.load();
  res.quarantined = net.quarantined;
  res.shed = net.shed;
  return res;
}

void print_result(const RunResult& r) {
  std::printf(
      "%-6s workers=%zu batch=%-2zu  qps=%8.1f  p50=%6.2fms p95=%6.2fms "
      "p99=%6.2fms  completed=%llu rejected=%llu mean_batch=%.2f\n",
      r.mode.c_str(), r.workers, r.max_batch, r.qps, r.p50_ms, r.p95_ms,
      r.p99_ms, static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.rejected), r.mean_batch);
  if (r.mode == "loopback" || r.mode == "chaos") {
    std::printf("       retries=%llu quarantined=%llu shed=%llu\n",
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.shed));
  }
}

void write_json(const std::vector<RunResult>& results, double speedup_8w,
                double loopback_slowdown_8w, double chaos_ok_fraction,
                bool smoke, const AdminReport& admin) {
  std::ofstream out("BENCH_serve.json");
  out << "{\n  \"benchmark\": \"serve_load\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"kernel_config\": \"" << kernels::active_config_summary()
      << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"workers\": " << r.workers
        << ", \"max_batch\": " << r.max_batch << ", \"clients\": " << r.clients
        << ", \"completed\": " << r.completed << ", \"rejected\": " << r.rejected
        << ", \"wall_s\": " << r.wall_s << ", \"qps\": " << r.qps
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"p99_ms\": " << r.p99_ms << ", \"mean_batch\": " << r.mean_batch
        << ", \"retries\": " << r.retries
        << ", \"quarantined\": " << r.quarantined << ", \"shed\": " << r.shed
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batched_speedup_8w\": " << speedup_8w
      << ",\n  \"loopback_slowdown_8w\": " << loopback_slowdown_8w
      << ",\n  \"chaos_ok_fraction\": " << chaos_ok_fraction
      << ",\n  \"admin_scrapes\": " << admin.scrapes
      << ",\n  \"admin_scrape_p50_ms\": " << admin.scrape_p50_ms
      << ",\n  \"admin_endpoints_ok\": " << admin.endpoints_ok
      << ",\n  \"admin_exemplar_joined\": " << (admin.exemplar_joined ? 1 : 0)
      << ",\n  \"slo_degraded_observed\": " << admin.slo_degraded_observed
      << ",\n  \"slo_recovered\": " << admin.slo_recovered << "\n}\n";
}

// ---------------------------------------------------------------------------
// --family: continuous-learning family-classification scenario, written to
// BENCH_family.json.
//
// 1. Synthesize a corpus, relabel it under the K-class family schema, and
//    train the family CNN; report held-out accuracy / macro-F1 and check
//    >= 3 malicious families are present.
// 2. Retrain determinism: the same init trained with the chunked trainer at
//    2 vs 4 threads must produce bitwise-identical held-out predictions and
//    final loss (the property the live hot-swap below relies on).
// 3. Targeted GEA: the source->predicted misclassification matrix over the
//    schema (gea::aug::GeaHarness::family_evasion_matrix).
// 4. Continuous learning: serve checkpoint v1 under live closed-loop
//    traffic while new family variants stream in, retrain in the
//    background, write a schema-tagged checkpoint v2, and hot-swap it via
//    ModelRegistry. The gate is zero dropped requests and verdicts observed
//    from both versions.
// ---------------------------------------------------------------------------

/// Rows scaled with `scaler` + schema-class labels, ready for the trainer.
ml::LabeledData scaled_data(const dataset::Corpus& corpus,
                            const features::FeatureScaler& scaler) {
  ml::LabeledData data;
  data.rows.reserve(corpus.size());
  for (const auto& s : corpus.samples()) {
    const auto t = scaler.transform(s.features);
    data.rows.emplace_back(t.begin(), t.end());
    data.labels.push_back(s.label);
  }
  return data;
}

/// Every 5th sample held out for evaluation.
void split_data(const ml::LabeledData& all, ml::LabeledData& train,
                ml::LabeledData& test) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& dst = (i % 5 == 0) ? test : train;
    dst.rows.push_back(all.rows[i]);
    dst.labels.push_back(all.labels[i]);
  }
}

struct FamilyReport {
  std::size_t num_classes = 0;
  std::size_t families_present = 0;  // malicious families with samples
  std::size_t train_rows = 0, test_rows = 0;
  double test_accuracy = 0.0;
  double macro_f1 = 0.0;
  ml::MultiConfusion test_matrix;
  int retrain_deterministic = 0;
  std::size_t gea_samples = 0;
  std::size_t gea_quarantined = 0;
  double gea_targeted_rate = 0.0;
  double gea_evasion_rate = 0.0;
  ml::MultiConfusion gea_matrix;
  std::uint64_t hotswap_requests = 0;
  std::uint64_t hotswap_dropped = 0;
  std::uint64_t verdicts_v1 = 0, verdicts_v2 = 0;
  int schema_digest_match = 0;
  double retrain_s = 0.0;
};

void write_matrix(std::ofstream& out, const ml::MultiConfusion& m) {
  out << "[";
  for (std::size_t r = 0; r < m.k; ++r) {
    out << (r ? ", [" : "[");
    for (std::size_t c = 0; c < m.k; ++c) {
      out << (c ? ", " : "") << m.at(r, c);
    }
    out << "]";
  }
  out << "]";
}

void write_family_json(const FamilyReport& rep, bool smoke) {
  std::ofstream out("BENCH_family.json");
  out << "{\n  \"benchmark\": \"family\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"num_classes\": " << rep.num_classes << ",\n"
      << "  \"families_present\": " << rep.families_present << ",\n"
      << "  \"train_rows\": " << rep.train_rows << ",\n"
      << "  \"test_rows\": " << rep.test_rows << ",\n"
      << "  \"test_accuracy\": " << rep.test_accuracy << ",\n"
      << "  \"macro_f1\": " << rep.macro_f1 << ",\n  \"test_matrix\": ";
  write_matrix(out, rep.test_matrix);
  out << ",\n  \"retrain_deterministic\": " << rep.retrain_deterministic
      << ",\n  \"gea_samples\": " << rep.gea_samples
      << ",\n  \"gea_quarantined\": " << rep.gea_quarantined
      << ",\n  \"gea_targeted_rate\": " << rep.gea_targeted_rate
      << ",\n  \"gea_evasion_rate\": " << rep.gea_evasion_rate
      << ",\n  \"gea_matrix\": ";
  write_matrix(out, rep.gea_matrix);
  out << ",\n  \"hotswap_requests\": " << rep.hotswap_requests
      << ",\n  \"hotswap_dropped\": " << rep.hotswap_dropped
      << ",\n  \"verdicts_v1\": " << rep.verdicts_v1
      << ",\n  \"verdicts_v2\": " << rep.verdicts_v2
      << ",\n  \"schema_digest_match\": " << rep.schema_digest_match
      << ",\n  \"retrain_s\": " << rep.retrain_s << "\n}\n";
}

int run_family(bool smoke) {
  const auto schema = dataset::family_label_schema();
  FamilyReport rep;
  rep.num_classes = schema.num_classes();
  rep.test_matrix = ml::MultiConfusion(schema.num_classes());
  rep.gea_matrix = ml::MultiConfusion(schema.num_classes());

  // -- Corpus, relabeled to family classes -------------------------------
  dataset::CorpusConfig ccfg;
  ccfg.num_malicious = smoke ? 90 : 400;
  ccfg.num_benign = smoke ? 45 : 150;
  auto corpus = dataset::Corpus::generate(ccfg);
  if (auto st = dataset::relabel_corpus(corpus, schema); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  for (const auto& [family, n] : corpus.family_histogram()) {
    if (bingen::is_malicious(family) && n > 0) ++rep.families_present;
  }
  std::printf("family: %zu samples, %zu malicious families, K=%zu\n",
              corpus.size(), rep.families_present, schema.num_classes());

  features::FeatureScaler scaler;
  scaler.fit(corpus.feature_rows());
  const auto all = scaled_data(corpus, scaler);
  ml::LabeledData train, test;
  split_data(all, train, test);
  rep.train_rows = train.size();
  rep.test_rows = test.size();

  // -- Train the family CNN; determinism pair at 2 vs 4 threads ----------
  ml::TrainConfig tcfg;
  tcfg.epochs = smoke ? 25 : 60;
  tcfg.threads = 2;
  util::Stopwatch train_sw;
  util::Rng dropout_rng(11), weight_rng(12);
  auto model = ml::make_family_cnn(kDim, schema, dropout_rng);
  model.init(weight_rng);
  auto stats = ml::train(model, train, tcfg);
  rep.retrain_s = train_sw.elapsed_ms() / 1000.0;
  const auto test_pred = ml::predict_all(model, test);
  rep.test_matrix = ml::confusion_k(schema.num_classes(), test_pred,
                                    test.labels);
  rep.test_accuracy = rep.test_matrix.accuracy();
  rep.macro_f1 = rep.test_matrix.macro_f1();
  std::printf("family: test accuracy %.3f macro-F1 %.3f (final loss %.4f)\n",
              rep.test_accuracy, rep.macro_f1, stats.final_loss);
  std::printf("%s\n", rep.test_matrix.to_string(schema).c_str());

  {
    ml::TrainConfig t4 = tcfg;
    t4.threads = 4;
    util::Rng dr(11), wr(12);
    auto twin = ml::make_family_cnn(kDim, schema, dr);
    twin.init(wr);
    auto twin_stats = ml::train(twin, train, t4);
    const auto twin_pred = ml::predict_all(twin, test);
    rep.retrain_deterministic =
        (twin_pred == test_pred && twin_stats.final_loss == stats.final_loss)
            ? 1
            : 0;
    std::printf("family: chunked retrain 2t vs 4t bitwise-identical: %s\n",
                rep.retrain_deterministic ? "yes" : "NO");
  }

  // -- Targeted GEA over the schema --------------------------------------
  {
    ml::ModelClassifier clf(model, kDim, schema.num_classes());
    aug::GeaHarness harness(corpus, scaler, clf);
    aug::GeaHarnessOptions gopts;
    gopts.max_samples = smoke ? 12 : 40;
    gopts.verify_every = 4;
    auto evasion = harness.family_evasion_matrix(schema, gopts);
    rep.gea_samples = evasion.samples;
    rep.gea_quarantined = evasion.quarantined;
    rep.gea_targeted_rate = evasion.targeted_rate();
    rep.gea_evasion_rate = evasion.evasion_rate();
    rep.gea_matrix = evasion.matrix;
    std::printf(
        "family: targeted GEA over %zu samples: targeted %.3f evaded %.3f\n",
        evasion.samples, evasion.targeted_rate(), evasion.evasion_rate());
    std::printf("%s\n", evasion.matrix.to_string(schema).c_str());
  }

  // -- Continuous learning: hot-swap a retrained checkpoint under load ---
  const auto dir_v1 =
      (std::filesystem::temp_directory_path() / "gea_family_v1").string();
  const auto dir_v2 =
      (std::filesystem::temp_directory_path() / "gea_family_v2").string();
  std::filesystem::remove_all(dir_v1);
  std::filesystem::remove_all(dir_v2);
  if (auto st = serve::Checkpoint::write(dir_v1, model, &scaler, schema);
      !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }
  serve::ModelRegistry registry;
  serve::CheckpointSpec fspec;
  fspec.schema = schema;  // pin: a binary checkpoint must NOT serve here
  if (auto st = registry.load("fam-v1", dir_v1, fspec); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }

  const std::size_t clients = 8;
  serve::DetectionServer server(registry,
                                server_config(2, 8, clients * 2));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0}, dropped{0};
  std::atomic<std::uint64_t> v1_seen{0}, v2_seen{0}, digest_bad{0};
  const std::uint64_t want_digest = schema.digest();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& fv = corpus.samples()[i % corpus.size()].features;
        auto r = server.detect({fv.begin(), fv.end()});
        requests.fetch_add(1);
        if (!r.is_ok()) {
          dropped.fetch_add(1);
        } else {
          if (r.value().model_version == "fam-v1") v1_seen.fetch_add(1);
          if (r.value().model_version == "fam-v2") v2_seen.fetch_add(1);
          if (r.value().schema_digest != want_digest) digest_bad.fetch_add(1);
        }
        i += clients;
      }
    });
  }

  // New variants stream in (a fresh synthesis seed), and the background
  // retrain fine-tunes the serving weights on old + new data while the
  // closed loop above keeps hammering the server.
  dataset::CorpusConfig vcfg = ccfg;
  vcfg.seed = ccfg.seed + 1;
  vcfg.num_malicious = smoke ? 45 : 200;
  vcfg.num_benign = smoke ? 20 : 75;
  auto variants = dataset::Corpus::generate(vcfg);
  int rc = 0;
  if (auto st = dataset::relabel_corpus(variants, schema); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    rc = 1;
  } else {
    ml::LabeledData grown = train;
    for (const auto& s : variants.samples()) {
      const auto t = scaler.transform(s.features);
      grown.rows.emplace_back(t.begin(), t.end());
      grown.labels.push_back(s.label);
    }
    ml::TrainConfig rcfg = tcfg;
    rcfg.epochs = smoke ? 8 : 20;
    util::Stopwatch retrain_sw;
    auto retrain_stats = ml::train(model, grown, rcfg);  // fine-tune in place
    std::printf("family: retrained on %zu rows in %.2fs (loss %.4f)\n",
                grown.size(), retrain_sw.elapsed_ms() / 1000.0,
                retrain_stats.final_loss);
    if (auto st2 = serve::Checkpoint::write(dir_v2, model, &scaler, schema);
        !st2.is_ok()) {
      std::fprintf(stderr, "%s\n", st2.to_string().c_str());
      rc = 1;
    } else if (auto st3 = registry.load("fam-v2", dir_v2, fspec);
               !st3.is_ok()) {
      std::fprintf(stderr, "%s\n", st3.to_string().c_str());
      rc = 1;
    }
  }

  // Let post-swap traffic accumulate, then drain.
  const util::Stopwatch linger;
  while (linger.elapsed_ms() < (smoke ? 150.0 : 500.0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : pool) t.join();
  server.stop();

  rep.hotswap_requests = requests.load();
  rep.hotswap_dropped = dropped.load();
  rep.verdicts_v1 = v1_seen.load();
  rep.verdicts_v2 = v2_seen.load();
  rep.schema_digest_match = digest_bad.load() == 0 ? 1 : 0;
  std::printf(
      "family: hot-swap under load: %llu requests, %llu dropped, "
      "v1=%llu v2=%llu, digest match: %s\n",
      static_cast<unsigned long long>(rep.hotswap_requests),
      static_cast<unsigned long long>(rep.hotswap_dropped),
      static_cast<unsigned long long>(rep.verdicts_v1),
      static_cast<unsigned long long>(rep.verdicts_v2),
      rep.schema_digest_match ? "yes" : "NO");

  // Gates: >= 3 families, deterministic retrain, zero dropped requests,
  // traffic observed from both checkpoint versions, digests intact.
  if (rep.families_present < 3) {
    std::fprintf(stderr, "family gate FAILED: %zu families < 3\n",
                 rep.families_present);
    rc = 1;
  }
  if (rep.retrain_deterministic != 1) {
    std::fprintf(stderr, "family gate FAILED: retrain not deterministic\n");
    rc = 1;
  }
  if (rep.hotswap_dropped != 0 || rep.verdicts_v1 == 0 ||
      rep.verdicts_v2 == 0 || rep.schema_digest_match != 1) {
    std::fprintf(stderr,
                 "family gate FAILED: dropped=%llu v1=%llu v2=%llu digest=%d\n",
                 static_cast<unsigned long long>(rep.hotswap_dropped),
                 static_cast<unsigned long long>(rep.verdicts_v1),
                 static_cast<unsigned long long>(rep.verdicts_v2),
                 rep.schema_digest_match);
    rc = 1;
  }

  write_family_json(rep, smoke);
  std::printf("wrote BENCH_family.json\n");
  std::filesystem::remove_all(dir_v1);
  std::filesystem::remove_all(dir_v2);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, loopback = false, chaos = false, family = false;
  std::uint16_t admin_port = 0;      // 0 = ephemeral
  double admin_linger_ms = 0.0;      // keep admin up after loopback for curl
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--loopback") == 0) loopback = true;
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
    if (std::strcmp(argv[i], "--family") == 0) family = true;
    if (std::strcmp(argv[i], "--admin-port") == 0 && i + 1 < argc) {
      admin_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--admin-linger-ms") == 0 && i + 1 < argc) {
      admin_linger_ms = std::atof(argv[++i]);
    }
  }
  if (family) return run_family(smoke);
  const std::size_t clients = util::threads_from_cli(argc, argv, 48);
  const std::size_t per_client = smoke ? 12 : 120;

  const auto dir = write_bench_checkpoint();
  serve::ModelRegistry registry;
  if (auto st = registry.load("bench", dir); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 1;
  }

  util::Rng data_rng(99);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 64; ++i) rows.push_back(synthetic_row(data_rng));

  std::printf("serve_load: %zu clients x %zu requests per run%s\n", clients,
              per_client, smoke ? " (smoke)" : "");
  std::vector<RunResult> results;
  double qps_8w_batched = 0.0, qps_8w_unbatched = 0.0;
  for (std::size_t workers : {1u, 2u, 8u}) {
    for (std::size_t max_batch : {1u, 16u}) {
      auto r = run_closed(registry, workers, max_batch, clients, per_client,
                          rows);
      print_result(r);
      if (workers == 8) {
        (max_batch == 1 ? qps_8w_unbatched : qps_8w_batched) = r.qps;
      }
      results.push_back(std::move(r));
    }
  }

  // Open loop at ~2x the batched capacity: overload must turn into fast
  // rejects, not hangs. (Capacity estimate from the 2-worker batched run.)
  const double capacity = results[3].qps;  // workers=2, batch=16
  auto open = run_open(registry, 2, 16, capacity * 2.0,
                       smoke ? 200 : 2000, rows);
  print_result(open);
  results.push_back(std::move(open));

  const double speedup =
      qps_8w_unbatched > 0 ? qps_8w_batched / qps_8w_unbatched : 0.0;
  std::printf("batched speedup at 8 workers: %.2fx\n", speedup);

  double loopback_slowdown = 0.0, chaos_ok_fraction = 0.0;
  AdminReport admin;
  if (loopback) {
    auto r = run_loopback(registry, 8, 16, clients, per_client, rows,
                          /*chaos=*/false, nullptr, &admin, admin_port,
                          chaos ? 0.0 : admin_linger_ms);
    print_result(r);
    loopback_slowdown = r.qps > 0 ? qps_8w_batched / r.qps : 0.0;
    std::printf("loopback slowdown at 8 workers: %.2fx\n", loopback_slowdown);
    std::printf(
        "admin: %llu scrapes under load (p50 %.2f ms), %d/5 endpoints ok, "
        "exemplar joined to /tracez: %s\n",
        static_cast<unsigned long long>(admin.scrapes), admin.scrape_p50_ms,
        admin.endpoints_ok, admin.exemplar_joined ? "yes" : "NO");
    results.push_back(std::move(r));
  }
  int rc = 0;
  if (loopback && (admin.endpoints_ok < 5 || !admin.exemplar_joined)) {
    std::fprintf(stderr,
                 "admin gate FAILED: endpoints_ok=%d/5 exemplar_joined=%d\n",
                 admin.endpoints_ok, admin.exemplar_joined ? 1 : 0);
    rc = 1;
  }
  if (chaos) {
    AdminReport chaos_admin;
    auto r = run_loopback(registry, 8, 16, clients, per_client, rows,
                          /*chaos=*/true, &chaos_ok_fraction, &chaos_admin,
                          admin_port, admin_linger_ms);
    print_result(r);
    std::printf("chaos ok fraction: %.3f (gate: >= 0.90, no crashes)\n",
                chaos_ok_fraction);
    std::printf("chaos slo: degraded observed=%d recovered=%d\n",
                chaos_admin.slo_degraded_observed, chaos_admin.slo_recovered);
    // The whole point of the chaos stage: under all five wire faults at
    // once the system degrades but does not fall over. Reaching this line
    // proves no crash; the fraction bounds the error rate.
    if (chaos_ok_fraction < 0.90) {
      std::fprintf(stderr, "chaos gate FAILED: ok fraction %.3f < 0.90\n",
                   chaos_ok_fraction);
      rc = 1;
    }
    admin.slo_degraded_observed = chaos_admin.slo_degraded_observed;
    admin.slo_recovered = chaos_admin.slo_recovered;
    results.push_back(std::move(r));
  }

  write_json(results, speedup, loopback_slowdown, chaos_ok_fraction, smoke,
             admin);
  std::printf("wrote BENCH_serve.json\n");
  std::filesystem::remove_all(dir);
  return rc;
}
