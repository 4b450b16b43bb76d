// Checks of the benchmark's own statistics (stats.hpp). run.py runs this
// before every benchmark run; a failure stops the run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

using gea::util::percentile;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_needs_ten_beyond() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  // p99 of 1001 samples sits on sorted position 990 exactly; ten lie above.
  expect(samples_beyond(1001, 99) == 10, "1001 samples leave 10 beyond p99");
  expect(samples_beyond(1000, 99) == 9, "1000 samples leave 9 beyond p99");
  expect(percentile_supported(1001, 99), "p99 of 1001 samples is supported");
  expect(!percentile_supported(1000, 99), "p99 of 1000 samples is not supported");
  expect(percentile_supported(21, 50) && !percentile_supported(20, 50),
         "p50 needs 21 samples");
  std::vector<double> xs;
  for (int i = 0; i <= 1000; ++i) xs.push_back(i);
  expect(near(percentile(xs, 99), 990), "p99 of 0..1000 is 990");
  // The ten values above p99 are the ones the rule counts.
  int above = 0;
  for (double v : xs) above += v > percentile(xs, 99) ? 1 : 0;
  expect(above == 10, "ten samples lie above p99 of 0..1000");
  // A failed request at kNeverMetMs keeps the percentile finite and above
  // any limit once it is among the samples read.
  xs.back() = perfbench::kNeverMetMs;
  expect(near(percentile(xs, 99), 990), "one failure does not move p99");
  for (int i = 990; i <= 1000; ++i) xs[static_cast<std::size_t>(i)] = perfbench::kNeverMetMs;
  expect(percentile(xs, 99) >= perfbench::kNeverMetMs, "eleven failures fail p99");
}

void due_time_latency_counts_a_stall() {
  // 1000 requests at 1000/s, 0.2 ms service. The consumer stalls from
  // t=100 ms to t=150 ms: requests due in that window are only sent when it
  // ends, and each completes 0.2 ms after it is sent.
  perfbench::Schedule sched;
  for (int i = 0; i < 1000; ++i) sched.offset_s.push_back(i / 1000.0);
  std::vector<double> done;
  for (int i = 0; i < 1000; ++i) {
    const double due = sched.due_s(static_cast<std::size_t>(i));
    const double sent = (due >= 0.100 && due < 0.150) ? 0.150 : due;
    done.push_back(sent + 0.0002);
  }
  const auto lat = perfbench::due_latencies_ms(sched, done);
  expect(near(lat[0], 0.2), "an unstalled request waits only for service");
  expect(near(lat[100], 50.2), "the first stalled request waits the whole stall");
  expect(near(lat[149], 1.2), "the last stalled request waits the stall's tail");
  // Measured from the send instead, the stall would vanish: every request
  // would read 0.2 ms. From the due time, 50 of 1000 exceed 1 ms.
  int over = 0;
  for (double v : lat) over += v > 1.0 ? 1 : 0;
  expect(over == 50, "fifty requests see the stall");
  expect(percentile(lat, 99) > 40.0, "p99 shows the stall");
  expect(percentile(lat, 50) < 0.3, "p50 does not");
  // The stall is short, so the backlog does not read as growing; a
  // consumer that falls further behind does.
  expect(std::fabs(perfbench::growth(lat)) < 0.01, "a short stall is not growth");
  std::vector<double> behind;
  for (int i = 0; i < 100; ++i) behind.push_back(0.01 * i);
  expect(perfbench::growth(behind) > 0.7, "growing lateness is detected");
  expect(near(perfbench::growth(std::vector<double>(100, 0.3)), 0), "flat lateness");
}

void poisson_arrivals_are_seeded() {
  const auto a = perfbench::poisson_schedule(2000.0, 20000, 7);
  const auto b = perfbench::poisson_schedule(2000.0, 20000, 7);
  expect(a.offset_s == b.offset_s, "the same seed gives the same arrivals");
  expect(a.offset_s != perfbench::poisson_schedule(2000.0, 20000, 8).offset_s,
         "another seed gives other arrivals");
  expect(a.offset_s.front() == 0.0 &&
             std::is_sorted(a.offset_s.begin(), a.offset_s.end()),
         "arrivals start at 0 and ascend");
  const double rate = static_cast<double>(a.offset_s.size() - 1) / a.offset_s.back();
  expect(std::fabs(rate / 2000.0 - 1.0) < 0.03, "the mean rate is the offered rate");
}

void ladder_search_finds_highest_passing_rung() {
  using perfbench::Rung;
  perfbench::LadderLimits lim;
  lim.p99_limit_ms = 10;
  lim.max_fail_share = 0.001;
  lim.max_growth_ms = 1;
  expect(perfbench::rung_passes({1000, 2000, 0, 3.0, 0.1}, lim), "a healthy rung passes");
  expect(perfbench::rung_passes({1300, 2600, 2, 8.0, 0.2}, lim), "2/2600 failed is within 0.1%");
  expect(!perfbench::rung_passes({1200, 2400, 0, 12.0, 0.0}, lim), "p99 over the limit fails");
  expect(!perfbench::rung_passes({1400, 2800, 3, 9.0, 0.0}, lim), "3/2800 failed is over 0.1%");
  expect(!perfbench::rung_passes({1500, 3000, 0, 9.0, 2.5}, lim), "a growing backlog fails");
  expect(!perfbench::rung_passes({5000, 1000, 0, 1.0, 0.0}, lim),
         "a rung too small for p99 cannot pass");

  const auto rates = perfbench::ladder_rates(1000, 22, 1.1);
  expect(rates.size() == 22 && rates[0] == 1000 && rates[1] == 1100 && rates[2] == 1210,
         "ladder rungs step by 10%");
  expect(rates.back() / rates.front() > 7.3, "22 rungs span more than 7x");

  // The system meets every rate up to rung 13 and none above.
  std::vector<std::size_t> probed;
  auto up_to_13 = [&](std::size_t k) {
    probed.push_back(k);
    return k <= 13;
  };
  auto best = perfbench::search_goodput(rates.size(), up_to_13);
  expect(best.has_value() && *best == 13, "search finds the highest passing rung");
  expect(probed.size() <= 5, "search probes about log2(rungs) rungs");
  best = perfbench::search_goodput(rates.size(), [](std::size_t) { return true; });
  expect(best.has_value() && *best == 21, "a system faster than the ladder tops it");
  best = perfbench::search_goodput(rates.size(), [](std::size_t) { return false; });
  expect(!best.has_value(), "a system slower than the first rung is below the ladder");
  // A noisy failure of a rung below the knee ends the search at a passing
  // rung whose faster neighbour failed: never at a rung that failed.
  probed.clear();
  best = perfbench::search_goodput(rates.size(), [&](std::size_t k) {
    probed.push_back(k);
    return k <= 13 && k != 5;
  });
  expect(best.has_value() && *best <= 13 && *best != 5, "a search ends on a passing rung");

  // From rung 13, a staircase on a system that meets rung 13 and not 14
  // alternates between them; one noisy failure steps it down once.
  perfbench::Staircase stair{rates.size(), 13, {}};
  for (int i = 0; i < 8; ++i) {
    const std::size_t k = stair.rung;
    stair.record(k <= 13 && i != 2, rates[k] - 1);
  }
  expect(stair.passed.size() == 4, "half the probes at the knee pass");
  expect(near(stair.goodput(), rates[13] - 1), "goodput is the median delivered rate");
  perfbench::Staircase top{3, 2, {}};
  top.record(true, 3);
  top.record(true, 3);
  expect(top.rung == 2 && near(top.goodput(), 3), "the staircase stays on the ladder");
  perfbench::Staircase none{3, 0, {}};
  none.record(false, 0);
  expect(none.rung == 0 && none.goodput() == 0, "no passing probe is goodput 0");
}

void ledger_subtracts_child_time() {
  using perfbench::Span;
  // root [0,100]: A [10,40] holds G [20,30]; B [35,80] overlaps A and is
  // taken from 40; C [90,120] runs past the root and is clipped at 100.
  std::vector<Span> spans = {
      {1, 0, "root", 0, 100},
      {2, 1, "A", 10, 40},
      {3, 2, "G", 20, 30},
      {4, 1, "B", 35, 80},
      {5, 1, "C", 90, 120},
      {6, 0, "root", 200, 210},  // a second unit with no children
  };
  const auto l = perfbench::build_ledger(spans);
  expect(l.units == 2, "two roots are two units");
  expect(near(l.wall_ms, 0.110), "wall is the roots' summed duration");
  expect(near(l.row_ms("A"), 0.020), "A's self time excludes G");
  expect(near(l.row_ms("G"), 0.010), "G's self time");
  expect(near(l.row_ms("B"), 0.040), "B loses the part overlapping A");
  expect(near(l.row_ms("C"), 0.010), "C is clipped to its parent");
  expect(near(l.leftover_ms, 0.030), "leftover is what no child covers");
  double sum = l.leftover_ms;
  for (const auto& r : l.rows) sum += r.self_ms;
  expect(near(sum, l.wall_ms), "rows plus leftover equal wall time");
}

}  // namespace

int main() {
  percentile_needs_ten_beyond();
  due_time_latency_counts_a_stall();
  poisson_arrivals_are_seeded();
  ladder_search_finds_highest_passing_rung();
  ledger_subtracts_child_time();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
