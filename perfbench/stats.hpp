// The benchmark's own statistics: the ten-samples-beyond rule for
// percentiles, due-time latency for open loops, the goodput search over a
// fixed rate ladder, and the self-time ledger that splits wall time into
// per-layer rows. Percentile and median values come from util::percentile
// (linear interpolation between closest ranks) and util::median.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Samples that lie strictly above the highest sample util::percentile
/// reads for the p-th percentile of n samples: it interpolates between the
/// sorted positions around r = p/100 * (n - 1), so ceil(r) is the highest.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = p / 100.0 * static_cast<double>(n - 1);
  const auto hi = static_cast<std::size_t>(std::ceil(r - 1e-9));
  return n - 1 - std::min(hi, n - 1);
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// Latency recorded for a request that failed or was refused: it never
/// meets a limit. Finite, so interpolating percentiles stay defined.
constexpr double kNeverMetMs = 1e9;

/// Open-loop schedule: request i is due at start_s + offset_s[i].
struct Schedule {
  double start_s = 0.0;
  std::vector<double> offset_s;  // ascending, from 0
  double due_s(std::size_t i) const { return start_s + offset_s[i]; }
};

/// n Poisson arrivals at `rate`: exponential gaps drawn from `seed`. With
/// evenly spaced arrivals, a server that notices a finished request only
/// when it next wakes up (TransportServer polls in-flight verdicts when a
/// frame arrives or its 1 ms poll times out) rounds latency up to whole
/// multiples of 1 / rate, so a small change of service time moves p50 by a
/// whole gap. Random gaps make latency a smooth function of service time.
inline Schedule poisson_schedule(double rate, std::size_t n, std::uint64_t seed) {
  gea::util::Rng rng(seed);
  Schedule s;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s.offset_s.push_back(t);
    t -= std::log1p(-rng.uniform()) / rate;
  }
  return s;
}

/// Latency of request i measured from when it was due, not when it was
/// sent: a sender stall delays every later request, and that wait counts.
inline std::vector<double> due_latencies_ms(const Schedule& sched,
                                            const std::vector<double>& done_s) {
  std::vector<double> out(done_s.size());
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    out[i] = (done_s[i] - sched.due_s(i)) * 1e3;
  }
  return out;
}

/// How much a series rose over its run: median of the last quarter minus
/// median of the first quarter (0 for fewer than 8 samples). Medians, so a
/// short stall does not read as a growing backlog.
inline double growth(const std::vector<double>& series) {
  const std::size_t q = series.size() / 4;
  if (q < 2) return 0.0;
  const std::span<const double> all(series);
  return gea::util::median(all.last(q)) - gea::util::median(all.first(q));
}

/// One probe of a ladder rung, as measured.
struct Rung {
  double rate = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p99_ms = 0.0;     // due-time latency, failures at kNeverMetMs
  double growth_ms = 0.0;  // growth() of the due-time latency series
};

struct LadderLimits {
  double p99_limit_ms = 0.0;
  double max_fail_share = 0.001;
  double max_growth_ms = 1.0;
};

/// A rung passes when its p99 (with ten samples beyond it) is under the
/// limit, few enough requests failed, and the backlog did not grow. Due-time
/// latency includes the generator's lateness, so a generator that falls
/// behind also reads as growth.
inline bool rung_passes(const Rung& r, const LadderLimits& lim) {
  if (r.attempted == 0 || !percentile_supported(r.attempted, 99.0)) return false;
  const double fail_share =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  return r.p99_ms <= lim.p99_limit_ms && fail_share <= lim.max_fail_share &&
         r.growth_ms <= lim.max_growth_ms;
}

/// Fixed ladder: `rungs` rates from `first`, each `step` times the last.
inline std::vector<double> ladder_rates(double first, std::size_t rungs, double step) {
  std::vector<double> out;
  double rate = first;
  for (std::size_t k = 0; k < rungs; ++k, rate *= step) out.push_back(std::round(rate));
  return out;
}

/// Binary search for the highest passing rung of an ascending ladder of
/// `rungs` rungs, taking a rung below a passing one to pass too. probe(k)
/// runs rung k and says whether it passed; about log2(rungs) probes run.
/// Returns nullopt when the search ends below the first rung.
inline std::optional<std::size_t> search_goodput(
    std::size_t rungs, const std::function<bool(std::size_t)>& probe) {
  std::optional<std::size_t> best;
  std::size_t lo = 0, hi = rungs;  // unprobed candidates: [lo, hi)
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return best;
}

/// An up-down staircase on a ladder of `rungs` rungs: one rung up after a
/// passing probe, one down after a failing one, so probes cluster around
/// the rate where the system starts to miss the limits. The goodput is the
/// median verdict rate the passing probes delivered, 0 when none passed.
struct Staircase {
  std::size_t rungs = 0;
  std::size_t rung = 0;         // the next probe's rung
  std::vector<double> passed;   // delivered rate of each passing probe

  void record(bool pass, double delivered) {
    if (pass) {
      passed.push_back(delivered);
      if (rung + 1 < rungs) ++rung;
    } else if (rung > 0) {
      --rung;
    }
  }
  double goodput() const { return gea::util::median(passed); }
};

/// One recorded interval. `parent` is the id of the enclosing span, 0 for a
/// root (one unit of work: a request or a craft). Ids start at 1.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

struct LedgerRow {
  std::string name;
  double self_ms = 0.0;  // summed over every unit
  std::size_t count = 0; // spans of this name
};

/// Wall time split into self times. wall_ms is the summed duration of the
/// roots; leftover_ms is the part of the roots no child covers. Every row's
/// self time plus leftover_ms equals wall_ms.
struct Ledger {
  std::vector<LedgerRow> rows;  // sorted by name
  double wall_ms = 0.0;
  double leftover_ms = 0.0;
  std::size_t units = 0;
  double row_ms(const std::string& name) const {
    for (const auto& r : rows) {
      if (r.name == name) return r.self_ms;
    }
    return 0.0;
  }
};

/// Self time of a span = its duration minus the part its children cover.
/// Each child is first clipped to its parent's interval, and siblings are
/// taken in start order with each clipped to begin no earlier than the
/// previous sibling ended, so overlapping siblings are not counted twice
/// and the rows always add up to the wall time.
inline Ledger build_ledger(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  std::vector<const Span*> roots;
  for (const auto& s : spans) {
    if (s.parent == 0) {
      roots.push_back(&s);
    } else {
      children[s.parent].push_back(&s);
    }
  }
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return a->start_us < b->start_us ||
             (a->start_us == b->start_us && a->id < b->id);
    });
  }
  std::map<std::string, LedgerRow> rows;
  Ledger ledger;
  // Iterative walk: (span, clipped start, clipped end, is_root).
  struct Item {
    const Span* span;
    double s, e;
    bool root;
  };
  std::vector<Item> stack;
  for (const Span* r : roots) {
    const double e = std::max(r->start_us, r->end_us);
    ledger.wall_ms += (e - r->start_us) / 1e3;
    ++ledger.units;
    stack.push_back({r, r->start_us, e, true});
  }
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    double covered = 0.0;
    double cursor = it.s;
    if (auto found = children.find(it.span->id); found != children.end()) {
      for (const Span* c : found->second) {
        const double cs = std::clamp(std::max(c->start_us, cursor), it.s, it.e);
        const double ce = std::clamp(c->end_us, cs, it.e);
        covered += ce - cs;
        cursor = ce;
        stack.push_back({c, cs, ce, false});
      }
    }
    const double self_ms = ((it.e - it.s) - covered) / 1e3;
    if (it.root) {
      ledger.leftover_ms += self_ms;
    } else {
      auto& row = rows[it.span->name];
      row.name = it.span->name;
      row.self_ms += self_ms;
      ++row.count;
    }
  }
  for (auto& [name, row] : rows) ledger.rows.push_back(row);
  return ledger;
}

}  // namespace perfbench
