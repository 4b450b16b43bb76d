// Serving phases, over loopback TCP (raw v2 frames, poll-driven) or in
// process (DetectionServer::submit of programs): closed-loop throughput
// windows, open-loop load at fixed rates, the goodput ladder, and the traced
// request ledger.
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <span>
#include <thread>

#include "cfg/cfg.hpp"
#include "common.hpp"
#include "features/engine.hpp"
#include "graph/sweep.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace {

/// One request of an open-loop phase; times in µs on now_us()'s clock.
struct Req {
  std::size_t item = 0;
  double due = 0, sent = 0, done = 0;
  // Traced in-process requests: the featurization steps, timed from outside.
  double cfg_end = 0, lookup_end = 0, feat_end = 0, submit_end = 0;
  bool ok = false;
  bool hit = false;
  bool features_ok = true;  // traced: features equal the uncached oracle's
  std::vector<double> logits;
  std::size_t batch = 0;
  double queue_ms = 0, infer_ms = 0, total_ms = 0;
};

struct Phase {
  const char* name = "";
  Schedule sched;
  std::vector<Req> reqs;
  bool traced = false;
  // Closed loop: requests kept in flight, a new one sent as one completes.
  // 0 for an open loop on `sched`.
  std::size_t window = 0;

  /// Due-time latencies; a failed request never meets a limit.
  std::vector<double> latencies_ms() const {
    std::vector<double> done_s;
    for (const auto& r : reqs) done_s.push_back(r.done / 1e6);
    auto out = due_latencies_ms(sched, done_s);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].ok) out[i] = kNeverMetMs;
    }
    return out;
  }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& r : reqs) n += r.ok ? 0 : 1;
    return n;
  }
  /// Verdicts served per second, from the phase's start to its last verdict.
  double delivered_per_s() const {
    double last_done = 0;
    for (const auto& r : reqs) last_done = std::max(last_done, r.done);
    return static_cast<double>(reqs.size() - failed()) / (last_done / 1e6 - sched.start_s);
  }
};

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void fill(Req& r, const serve::Verdict& v) {
  r.ok = true;
  r.logits = v.logits;
  r.batch = v.batch_size;
  r.queue_ms = v.queue_ms;
  r.infer_ms = v.infer_ms;
  r.total_ms = v.total_ms;
}

/// Assign items: remote rows walk the pool from `offset`; local requests
/// draw the hot set with probability hot_share, else walk the cold pool.
void assign_items(const Traffic& t, Phase& ph, std::uint64_t seed,
                  std::size_t offset) {
  util::Rng rng(seed);
  const std::size_t pool = t.remote ? t.rows.size() : t.programs.size();
  const std::size_t cold = pool - t.hot;
  std::size_t cursor = offset;
  for (auto& r : ph.reqs) {
    if (t.hot > 0 && rng.uniform(0.0, 1.0) < t.hot_share) {
      r.item = static_cast<std::size_t>(rng.next_u64() % t.hot);
    } else {
      r.item = t.hot + (cursor++ % cold);
    }
  }
}

struct Conn {
  net::Socket sock;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
};

/// The load generator's lasting state: two connections for the remote
/// workload, two submitting threads for the in-process ones. A real client
/// keeps its threads, and with them their thread-local featurization
/// scratch, from one request to the next; fresh threads per window would
/// time their warm-up instead.
struct Client {
  static constexpr std::size_t kSubmitters = 2;
  Conn conns[2];
  bool connected = false;
  std::uint64_t next_id = 1;  // request ids never repeat across phases
  std::unique_ptr<util::ThreadPool> submitters;
};

/// One generator thread pipelines pre-encoded v2 frames over two
/// connections and reads replies with poll: on the schedule, or in a closed
/// loop, as replies free the window.
void drive_remote(Client& client, World& w, const Traffic& t, Phase& ph) {
  const bool closed = ph.window > 0;
  const std::size_t n = ph.reqs.size();
  const std::uint64_t base = client.next_id;
  client.next_id += n;
  std::vector<std::vector<std::uint8_t>> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::Frame f;
    f.type = net::FrameType::kDetectRequest;
    f.request_id = base + i;
    f.payload = serve::encode_detect_request_payload(t.rows[ph.reqs[i].item], 0);
    frames[i] = net::encode_frame(f);
  }
  auto& conns = client.conns;
  if (!client.connected) {
    for (auto& c : conns) {
      auto s = net::connect_to("127.0.0.1", w.transport->port(), 2000);
      if (!s.is_ok()) throw std::runtime_error("connect: " + s.status().to_string());
      c.sock = std::move(s.value());
    }
    client.connected = true;
  }
  ph.sched.start_s = now_s() + (closed ? 0.0 : 0.002);
  for (std::size_t i = 0; i < n; ++i) ph.reqs[i].due = ph.sched.due_s(i) * 1e6;
  const double give_up = ph.sched.due_s(n - 1) + 10.0;
  std::size_t next = 0, received = 0;
  std::vector<std::uint8_t> buf(1 << 16);
  while (received < n) {
    double now = now_s();
    if (now > give_up) break;
    while (next < n && (closed ? next - received < ph.window : ph.sched.due_s(next) <= now)) {
      Conn& c = conns[next % 2];
      c.out.insert(c.out.end(), frames[next].begin(), frames[next].end());
      ph.reqs[next].sent = now * 1e6;
      ++next;
    }
    pollfd fds[2];
    for (int k = 0; k < 2; ++k) {
      Conn& c = conns[k];
      while (c.out_off < c.out.size()) {
        auto r = c.sock.write_some(c.out.data() + c.out_off, c.out.size() - c.out_off);
        if (!r.ok() || r.eof) throw std::runtime_error("remote write failed");
        if (r.would_block || r.bytes == 0) break;
        c.out_off += r.bytes;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      fds[k].fd = c.sock.fd();
      fds[k].events = static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      fds[k].revents = 0;
    }
    now = now_s();
    double wait_s = next < n && !closed ? ph.sched.due_s(next) - now : 0.05;
    wait_s = std::clamp(wait_s, 0.0, 0.05);
    timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(wait_s * 1e9);
    if (::ppoll(fds, 2, &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (int k = 0; k < 2; ++k) {
      if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns[k];
      while (true) {
        auto r = c.sock.read_some(buf.data(), buf.size());
        if (!r.ok() || r.eof) throw std::runtime_error("remote read failed");
        if (r.would_block || r.bytes == 0) break;
        c.in.insert(c.in.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(r.bytes));
      }
      const double stamp = now_us();
      std::size_t pos = 0;
      while (pos < c.in.size()) {
        auto d = net::decode_frame(std::span<const std::uint8_t>(c.in).subspan(pos));
        if (d.kind == net::DecodeResult::Kind::kNeedMore) break;
        pos += d.consumed;
        if (d.kind == net::DecodeResult::Kind::kError) {
          if (!d.recoverable) throw std::runtime_error("remote: unrecoverable frame");
          continue;
        }
        const std::uint64_t id = d.frame.request_id;
        if (id < base || id >= base + n || ph.reqs[id - base].done != 0) continue;
        Req& req = ph.reqs[id - base];
        req.done = stamp;
        ++received;
        auto v = serve::decode_detect_response_payload(d.frame.payload);
        if (v.is_ok()) fill(req, v.value());
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
}

/// Submitting threads. On a schedule they never wait on a verdict while
/// requests are due; in a closed loop each keeps its share of the window in
/// flight. A verdict is done when the server completed it: submit()
/// enqueues just before it returns, and Verdict.total_ms runs from that
/// enqueue to the verdict. Traced requests featurize through the public
/// cfg/features calls (the steps submit(Program) runs) so each step can be
/// timed.
void drive_local(Client& client, World& w, const Traffic& t, Phase& ph) {
  constexpr std::size_t submitters = Client::kSubmitters;
  if (!client.submitters) client.submitters = std::make_unique<util::ThreadPool>(submitters);
  const bool closed = ph.window > 0;
  const std::size_t n = ph.reqs.size();
  ph.sched.start_s = now_s() + (closed ? 0.0 : 0.002);
  for (std::size_t i = 0; i < n; ++i) ph.reqs[i].due = ph.sched.due_s(i) * 1e6;
  std::vector<std::string> errors(submitters);
  auto* cache = w.server->feature_cache().get();
  auto job = [&](std::size_t k) {
    try {
      cfg::CfgOptions opts;
      opts.main_only = true;
      opts.label_blocks = false;
      std::vector<std::pair<std::size_t, std::future<util::Result<serve::Verdict>>>> pending;
      std::size_t collected = 0;
      auto collect = [&] {
        auto& [i, f] = pending[collected++];
        auto res = f.get();
        Req& r = ph.reqs[i];
        if (res.is_ok()) {
          fill(r, res.value());
          r.done = r.submit_end + r.total_ms * 1e3;
        } else {
          r.done = now_us();
        }
      };
      for (std::size_t i = k; i < n; i += submitters) {
        if (closed) {
          while (pending.size() - collected >= ph.window / submitters) collect();
        } else {
          sleep_until_s(ph.sched.due_s(i));
        }
        Req& r = ph.reqs[i];
        r.sent = now_us();
        const isa::Program& prog = t.programs[r.item];
        std::future<util::Result<serve::Verdict>> f;
        if (ph.traced) {
          const cfg::Cfg g = cfg::extract_cfg(prog, opts);
          r.cfg_end = now_us();
          const auto key = graph::graph_digest(g.graph);
          features::FeatureVector fv{};
          r.hit = cache != nullptr && cache->lookup(key, fv);
          r.lookup_end = now_us();
          if (!r.hit) {
            fv = features::FeatureEngine::local().extract(g.graph, nullptr);
            if (cache != nullptr) cache->insert(key, fv);
          }
          r.feat_end = now_us();
          r.features_ok = std::equal(fv.begin(), fv.end(), t.program_rows[r.item].begin());
          f = w.server->submit(std::vector<double>(fv.begin(), fv.end()));
        } else {
          f = w.server->submit(prog);
        }
        r.submit_end = now_us();
        pending.emplace_back(i, std::move(f));
      }
      while (collected < pending.size()) collect();
    } catch (const std::exception& e) {
      errors[k] = e.what();
    }
  };
  for (std::size_t k = 0; k < submitters; ++k) client.submitters->submit([&job, k] { job(k); });
  client.submitters->wait_idle();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("local load: " + e);
  }
}

struct Counters {
  serve::StatsSnapshot serve;
  serve::TransportSnapshot net;
  std::uint64_t gemm_calls = 0;
};

Counters read_counters(World& w) {
  Counters c;
  c.serve = w.server->stats();
  if (w.transport) c.net = w.transport->stats();
  c.gemm_calls = obs::MetricsRegistry::global().counter("kernels.gemm_calls").value();
  return c;
}

void drain(World& w) {
  while (w.server->queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

/// Run one phase, an open loop at `rate` or, when ph.window is set, a
/// closed loop, and check every verdict against the oracle.
void run_phase(Client& client, World& w, const Traffic& t, Phase& ph, double rate,
               std::size_t n, std::uint64_t seed, std::size_t offset,
               Report& report) {
  if (t.remote && n > t.rows.size()) {
    throw std::runtime_error(std::string(ph.name) + ": more requests than fresh rows");
  }
  if (ph.window > 0) {
    ph.sched.offset_s.assign(n, 0.0);
  } else {
    ph.sched = poisson_schedule(rate, n, util::mix_seed(seed, 1));
  }
  ph.reqs.assign(n, Req{});
  assign_items(t, ph, seed, offset);
  if (t.remote) {
    drive_remote(client, w, t, ph);
  } else {
    drive_local(client, w, t, ph);
  }
  drain(w);
  std::size_t mismatched = 0, bad_features = 0;
  for (const auto& r : ph.reqs) {
    if (r.ok && r.logits != t.expected[r.item]) ++mismatched;
    if (!r.features_ok) ++bad_features;
  }
  report.check(mismatched == 0,
               std::string(ph.name) + ": " + std::to_string(mismatched) +
                   " served verdicts differ bitwise from the offline logits");
  report.check(bad_features == 0,
               std::string(ph.name) + ": " + std::to_string(bad_features) +
                   " featurizations differ from an uncached FeatureEngine::extract");
}

/// Spans of one traced request (see the ledger in README.md).
void request_spans(SpanLog& log, std::vector<Span>& out, const Req& r,
                   bool remote, const std::map<std::size_t, LayerTimes>& ml) {
  const std::uint64_t root = log.next_id();
  out.push_back(Span{root, 0, "request", r.due, r.done});
  log.add(out, root, "gen.late", r.due, r.sent);
  std::uint64_t parent = 0;
  if (remote) {
    parent = log.add(out, root, "net.wire", r.sent, r.done);
  } else {
    log.add(out, root, "cfg.extract", r.sent, r.cfg_end);
    log.add(out, root, "features.lookup", r.cfg_end, r.lookup_end);
    if (!r.hit) log.add(out, root, "features.extract", r.lookup_end, r.feat_end);
    log.add(out, root, "serve.submit", r.feat_end, r.submit_end);
    parent = log.add(out, root, "serve.wait", r.submit_end, r.done);
  }
  const double s0 = r.done - r.total_ms * 1e3;
  const std::uint64_t sreq = log.add(out, parent, "serve.other", s0, r.done);
  const double q1 = s0 + r.queue_ms * 1e3;
  log.add(out, sreq, "serve.queue", s0, q1);
  const std::uint64_t inf = log.add(out, sreq, "serve.infer", q1, q1 + r.infer_ms * 1e3);
  auto it = ml.find(r.batch);
  if (it == ml.end()) return;
  double cur = q1;
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) {
    static const char* kRow[LayerTimes::kGroups] = {
        "ml.conv1", "ml.conv2", "ml.conv3", "ml.conv4",
        "ml.dense1", "ml.dense2", "ml.other"};
    const double d = it->second.ms[g] * 1e3;
    log.add(out, inf, kRow[g], cur, cur + d);
    cur += d;
  }
}

/// Light and heavy windows, one of each per block; each window is its own
/// open-loop phase.
struct Windows {
  std::vector<Phase> light, heavy;
};

void run_windows(const Options& opt, Client& client, World& w, const Traffic& t,
                 std::size_t block, bool traced, Windows& out, Report& report) {
  const Params& p = opt.params;
  Phase& l = out.light.emplace_back();
  Phase& h = out.heavy.emplace_back();
  l.name = traced ? "light (traced)" : "light";
  h.name = traced ? "heavy (traced)" : "heavy";
  l.traced = h.traced = traced;
  const double lr = p.num("light_rps"), hr = p.num("heavy_rps");
  auto size = [](double rate) {
    return std::max(kWindowMinRequests, static_cast<std::size_t>(rate * kWindowS));
  };
  run_phase(client, w, t, l, lr, size(lr), util::mix_seed(opt.seed, 100 + 2 * block),
            1000 + 1543 * block, report);
  run_phase(client, w, t, h, hr, size(hr), util::mix_seed(opt.seed, 101 + 2 * block),
            5000 + 3571 * block, report);
}

/// The p-th due-time latency percentile over every request of the windows.
double windowed(const std::vector<Phase>& windows, double p, Report& report) {
  std::vector<double> lat;
  for (const auto& ph : windows) {
    const auto l = ph.latencies_ms();
    lat.insert(lat.end(), l.begin(), l.end());
  }
  report.check(percentile_supported(lat.size(), p),
               std::string(windows.front().name) + ": too few requests for p" +
                   std::to_string(static_cast<int>(p)));
  const double v = util::percentile(lat, p);
  report.check(v < kNeverMetMs, "latency windows: requests failed");
  return v;
}

/// One probe of ladder rung k, `probe` numbering the run's probes; says
/// whether the rung met the limits and sets `delivered` to the verdicts it
/// served per second. A missed rate is a measurement, not a failed check.
bool probe_rung(const Options& opt, Client& client, World& w, const Traffic& t,
                const std::vector<double>& rates, std::size_t k, std::size_t probe,
                const char* kind, double& delivered, Report& report) {
  LadderLimits lim;
  lim.p99_limit_ms = kP99LimitMs;
  lim.max_fail_share = kMaxFailShare;
  lim.max_growth_ms = kMaxGrowthMs;
  Phase ph;
  ph.name = "ladder";
  const auto n = std::max(kRungMinRequests, static_cast<std::size_t>(rates[k] * kRungS));
  run_phase(client, w, t, ph, rates[k], n, util::mix_seed(opt.seed, 1000 + probe),
            9000 + 977 * k, report);
  const auto lat = ph.latencies_ms();
  Rung r;
  r.rate = rates[k];
  r.attempted = n;
  r.failed = ph.failed();
  r.p99_ms = util::percentile(lat, 99);
  r.growth_ms = growth(lat);
  const bool passed = rung_passes(r, lim);
  delivered = ph.delivered_per_s();
  char line[200];
  std::snprintf(line, sizeof(line),
                "%-9s %8.1f rps  n=%zu failed=%zu p99=%.3f ms growth=%.3f ms delivered=%.1f/s %s",
                kind, r.rate, r.attempted, r.failed, r.p99_ms, r.growth_ms, delivered,
                passed ? "pass" : "FAIL");
  report.notes.push_back(line);
  return passed;
}

}  // namespace

void run_serving(const Options& opt, World& w, Traffic& t, double share,
                 Report& report) {
  const Params& p = opt.params;
  Client client;

  // Warm-up: every worker clones its replica, caches and buffers fill.
  {
    Phase warm;
    warm.name = "warm-up";
    run_phase(client, w, t, warm, p.num("light_rps"), 400, util::mix_seed(opt.seed, 90), 0,
              report);
  }

  // Untraced run: closed-loop windows of kClosedRequests requests with
  // kInFlight of them in flight, until the run's serving share is spent.
  // verdicts_per_s is the median window's rate. The server is kept busy, so
  // the rate is set by the work per verdict, not by when threads wake up.
  if (!opt.trace) {
    std::vector<double> window_rates;
    const double start = now_s();
    for (std::size_t b = 0; b < kMinBlocks || now_s() - start < share * opt.seconds; ++b) {
      Phase ph;
      ph.name = "closed loop";
      ph.window = kInFlight;
      run_phase(client, w, t, ph, 0.0, kClosedRequests, util::mix_seed(opt.seed, 100 + b),
                1000 + 1543 * b, report);
      window_rates.push_back(ph.delivered_per_s());
      // Only the first kMinBlocks windows run in every run; they alone
      // enter the fingerprint.
      for (const auto& r : ph.reqs) {
        if (b >= kMinBlocks) break;
        report.mix(r.item);
        report.mix(r.logits);
      }
      report.attempted += ph.reqs.size();
      report.failed += ph.failed();
    }
    report.e2e("verdicts_per_s", util::median(window_rates), "1/s");
    std::string line = "closed-loop windows (verdicts/s):";
    for (double r : window_rates) line += " " + std::to_string(static_cast<long>(r));
    report.notes.push_back(line);
    return;
  }

  // Traced run. First the open-loop figures, untraced: goodput on the
  // fixed ladder (a binary search finds the highest passing rung, then a
  // staircase from there keeps probing around the rate where the system
  // starts to miss the limits; goodput is the median verdict rate the
  // passing staircase probes delivered), and latency at the light and heavy
  // rates. They are per-layer figures: on a shared machine their run-to-run
  // spread is wider than any bound the benchmark may set (see README.md).
  const auto rates = ladder_rates(p.num("light_rps"), kLadderRungs, kLadderStep);
  std::size_t probes = 0;
  Staircase stair;
  stair.rungs = rates.size();
  {
    double unused = 0;
    const auto found = search_goodput(rates.size(), [&](std::size_t k) {
      return probe_rung(opt, client, w, t, rates, k, probes++, "search", unused, report);
    });
    stair.rung = found.value_or(0);
  }
  Windows untraced;
  for (std::size_t b = 0; b < kMinBlocks; ++b) {
    run_windows(opt, client, w, t, b, false, untraced, report);
    for (std::size_t i = 0; i < kStairProbes; ++i) {
      double delivered = 0;
      const bool passed = probe_rung(opt, client, w, t, rates, stair.rung, probes++,
                                     "staircase", delivered, report);
      stair.record(passed, delivered);
    }
  }
  for (const auto* set : {&untraced.light, &untraced.heavy}) {
    for (const Phase& ph : *set) {
      for (const auto& r : ph.reqs) {
        report.mix(r.item);
        report.mix(r.logits);
      }
      report.attempted += ph.reqs.size();
      report.failed += ph.failed();
    }
  }
  report.layer("serve.goodput_rps", stair.goodput(), "1/s");
  report.layer("serve.p50_ms_light", windowed(untraced.light, 50, report), "ms");
  report.layer("serve.p99_ms_light", windowed(untraced.light, 99, report), "ms");
  report.layer("serve.p50_ms_heavy", windowed(untraced.heavy, 50, report), "ms");
  report.layer("serve.p99_ms_heavy", windowed(untraced.heavy, 99, report), "ms");

  // Then the same windows again with spans.
  const Counters before = read_counters(w);
  Windows traced_windows;
  for (std::size_t b = 0; b < kMinBlocks; ++b) {
    run_windows(opt, client, w, t, b, true, traced_windows, report);
  }
  const Counters after = read_counters(w);

  std::vector<const Req*> traced;
  double untraced_sum = 0.0, traced_sum = 0.0;
  for (const auto* set : {&traced_windows.light, &traced_windows.heavy}) {
    for (const Phase& ph : *set) {
      for (const auto& r : ph.reqs) {
        if (r.ok) traced.push_back(&r);
      }
    }
  }
  for (const auto* set : {&untraced.light, &untraced.heavy}) {
    for (const Phase& ph : *set) {
      for (double v : ph.latencies_ms()) untraced_sum += std::isfinite(v) ? v : 0.0;
    }
  }
  const double reqs = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  for (const Req* r : traced) traced_sum += (r->done - r->due) / 1e3;
  report.layer("serve.trace_overhead_pct",
               100.0 * (traced_sum - untraced_sum) / std::max(1e-9, untraced_sum), "pct");

  // Batch histogram of the traced requests drives the private stack.
  std::map<std::size_t, std::size_t> batch_hist;
  std::vector<double> queue_ms, lateness;
  double infer_sum = 0, cfg_sum = 0, submit_sum = 0, extract_sum = 0, wire_sum = 0;
  std::size_t hits = 0, misses = 0;
  for (const Req* r : traced) {
    ++batch_hist[r->batch];
    queue_ms.push_back(r->queue_ms);
    lateness.push_back((r->sent - r->due) / 1e3);
    infer_sum += r->infer_ms;
    if (t.remote) {
      wire_sum += (r->done - r->sent) / 1e3 - r->total_ms;
    } else {
      cfg_sum += (r->cfg_end - r->sent) / 1e3;
      submit_sum += (r->submit_end - r->feat_end) / 1e3;
      if (r->hit) {
        ++hits;
      } else {
        ++misses;
        extract_sum += (r->feat_end - r->lookup_end) / 1e3;
      }
    }
  }
  double batch_mean = 0;
  std::uint64_t batches = 0, in_batches = 0;
  for (const auto& [size, count] : after.serve.batch_sizes) {
    auto prev = before.serve.batch_sizes.find(size);
    const std::uint64_t d = count - (prev == before.serve.batch_sizes.end() ? 0 : prev->second);
    batches += d;
    in_batches += d * size;
  }
  if (batches > 0) batch_mean = static_cast<double>(in_batches) / static_cast<double>(batches);

  std::vector<std::vector<double>> scaled;
  for (std::size_t i = 0; i < 256 && i < traced.size(); ++i) {
    scaled.push_back(w.scale(t.remote ? t.rows[traced[i]->item]
                                      : t.program_rows[traced[i]->item]));
  }
  PrivateStack stack(
      w.ckpt_dir + "/" + serve::Checkpoint::kModelFile, w,
      std::vector<std::vector<double>>(
          scaled.begin(), scaled.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(16, scaled.size()))),
      report);
  const std::size_t reps = kMlReps;
  std::map<std::size_t, LayerTimes> ml;
  for (const auto& [b, count] : batch_hist) ml[b] = stack.infer_times(scaled, b, reps);
  const auto b1 = stack.infer_times(scaled, 1, reps);
  const auto bm = stack.infer_times(
      scaled, std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(batch_mean))), reps);
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) {
    report.layer(std::string("ml.") + LayerTimes::group_name(g) + "_ms_b1", b1.ms[g], "ms");
    report.layer(std::string("ml.") + LayerTimes::group_name(g) + "_ms_bmean", bm.ms[g], "ms");
  }

  // features.scale_us: the scaler the server applies, timed per row.
  const std::size_t scale_n = std::min<std::size_t>(traced.size(), 4096);
  const double s0 = now_us();
  double sink = 0;
  for (std::size_t i = 0; i < scale_n; ++i) {
    const Req* r = traced[i];
    sink += w.scale(t.remote ? t.rows[r->item] : t.program_rows[r->item])[0];
  }
  const double scale_us = (now_us() - s0) / static_cast<double>(std::max<std::size_t>(1, scale_n));
  report.check(std::isfinite(sink), "scaled rows must be finite");

  report.layer("cfg.extract_ms", t.remote ? 0.0 : cfg_sum / reqs, "ms");
  report.layer("features.extract_ms", misses ? extract_sum / static_cast<double>(misses) : 0.0, "ms");
  report.layer("features.scale_us", scale_us, "us");
  report.layer("features.cache_hit_ratio",
               hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
               "ratio");
  report.layer("serve.submit_ms", t.remote ? 0.0 : submit_sum / reqs, "ms");
  report.layer("serve.queue_ms_p50", util::percentile(queue_ms, 50), "ms");
  report.layer("serve.queue_ms_p99", util::percentile(queue_ms, 99), "ms");
  report.layer("serve.infer_ms", infer_sum / reqs, "ms");
  report.layer("serve.batch_mean", batch_mean, "count");
  report.layer("serve.rejected_full",
               static_cast<double>(after.serve.rejected_full - before.serve.rejected_full), "count");
  report.layer("serve.expired", static_cast<double>(after.serve.expired - before.serve.expired),
               "count");
  report.layer("net.wire_ms", t.remote ? wire_sum / reqs : 0.0, "ms");
  report.layer("net.bytes_per_request",
               static_cast<double>((after.net.bytes_read - before.net.bytes_read) +
                                   (after.net.bytes_written - before.net.bytes_written)) / reqs,
               "B");
  report.layer("net.shed", static_cast<double>(after.net.shed - before.net.shed), "count");
  report.layer("net.quarantined",
               static_cast<double>(after.net.quarantined - before.net.quarantined), "count");
  report.layer("kernels.gemm_calls_per_request",
               static_cast<double>(after.gemm_calls - before.gemm_calls) / reqs, "count");
  report.layer("kernels.flops_per_request",
               PrivateStack::forward_flops(features::kNumFeatures, 2), "flop");
  report.layer("gen.late_ms_p99", util::percentile(lateness, 99), "ms");

  SpanLog log;
  std::vector<Span> spans;
  for (const Req* r : traced) request_spans(log, spans, *r, t.remote, ml);
  log.merge(spans);
  const Ledger ledger = build_ledger(log.spans());
  report.layer("serve.leftover_pct", 100.0 * ledger.leftover_ms / std::max(1e-9, ledger.wall_ms),
               "pct");
  print_ledger("serving (per request)", ledger,
               static_cast<double>(ledger.units), report);
}

}  // namespace perfbench
