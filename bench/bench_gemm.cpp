// Compute-kernel throughput study: blocked/threaded GEMM + index-table conv
// vs the retained naive:: references.
//
// Reports GFLOP/s for all three GEMM variants (single-threaded naive vs
// blocked), thread scaling of the blocked path at 256^3, the cost of waking
// the pool for an empty dispatch, the conv forward/backward blocked-vs-direct
// comparison at one large shape and at the shapes the search trains, the
// validation-pass convs above the pool's FLOP cut at 1 and 4 threads, and
// the Adam update (vector kernel vs scalar loop) at the search's model
// sizes — all into
// BENCH_bench_gemm.json via BenchResultFile.  Every timed pair is also
// differentially checked (blocked output must equal the reference bit for
// bit), so the bench doubles as a large-shape correctness harness.
//
//   --smoke   trim sizes/repetitions for CI (keeps the 256^3 rows)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "tensor/kernels.hpp"

namespace {

using namespace swt;
using namespace swt::bench;
namespace k = swt::kernels;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Min-of-reps wall time of `fn` — the standard way to strip scheduler noise
/// from identical repeated work.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const WallTimer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// Min-of-reps for a *pair* of competitors, interleaved rep by rep (with one
/// untimed warmup each).  On a shared host the clock speed drifts over
/// seconds; interleaving keeps each comparison's two sides in the same
/// phase so the reported ratio is fair even when absolute GF/s wobbles.
template <typename FnA, typename FnB>
std::pair<double, double> time_best_pair(int reps, FnA&& fa, FnB&& fb) {
  fa();
  fb();
  double best_a = 1e300;
  double best_b = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      const WallTimer timer;
      fa();
      best_a = std::min(best_a, timer.seconds());
    }
    {
      const WallTimer timer;
      fb();
      best_b = std::min(best_b, timer.seconds());
    }
  }
  return {best_a, best_b};
}

double gflops(double flops, double seconds) {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

bool g_all_match = true;
bool g_gate_ok = true;

void check_match(const std::vector<float>& got, const std::vector<float>& want,
                 const std::string& what) {
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    g_all_match = false;
    std::cout << "MISMATCH: " << what << " diverges from the naive reference\n";
  }
}

// ---------------------------------------------------------------------------
// GEMM: naive vs blocked, single-threaded
// ---------------------------------------------------------------------------

void gemm_single_thread_study(bool smoke) {
  print_banner(std::cout, "GEMM GFLOP/s, single thread (naive vs blocked)");
  k::set_compute_threads(1);
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{256} : std::vector<std::int64_t>{64, 128, 256, 384};
  const int reps = smoke ? 3 : 5;

  using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, std::int64_t, bool);
  struct Variant {
    const char* name;
    GemmFn blocked;
    GemmFn naive;
  };
  const Variant variants[] = {
      {"nn", &k::gemm_nn, &k::naive::gemm_nn},
      {"tn", &k::gemm_tn, &k::naive::gemm_tn},
      {"nt", &k::gemm_nt, &k::naive::gemm_nt},
  };

  TableReport table({"variant", "m=n=k", "naive GF/s", "blocked GF/s", "speedup"});
  for (const auto& v : variants) {
    for (const std::int64_t s : sizes) {
      const auto a = random_vec(s * s, 1);
      const auto b = random_vec(s * s, 2);
      std::vector<float> c_naive(static_cast<std::size_t>(s * s));
      std::vector<float> c_blocked(c_naive.size());
      const double flops = 2.0 * static_cast<double>(s) * s * s;
      const auto [t_naive, t_blocked] = time_best_pair(
          reps, [&] { v.naive(a.data(), b.data(), c_naive.data(), s, s, s, false); },
          [&] { v.blocked(a.data(), b.data(), c_blocked.data(), s, s, s, false); });
      check_match(c_blocked, c_naive, std::string("gemm_") + v.name + " " +
                                          std::to_string(s) + "^3");
      table.add_row({v.name, std::to_string(s), TableReport::cell(gflops(flops, t_naive)),
                     TableReport::cell(gflops(flops, t_blocked)),
                     TableReport::cell(t_naive / t_blocked, 2) + "x"});
    }
  }
  table.print(std::cout);
}

// ---------------------------------------------------------------------------
// Thread scaling of the blocked path
// ---------------------------------------------------------------------------

void gemm_scaling_study(bool smoke) {
  print_banner(std::cout, "GEMM thread scaling (blocked nn, 2-D tile partition)");
  const int reps = smoke ? 3 : 5;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  // 512^3 is the gated size (enough tiles — 8x4 at MC=64/NC=128 — for 8
  // owners); 256^3 shows where the old row partitioner went flat.
  TableReport table({"m=n=k", "threads", "GF/s", "speedup vs 1"});
  double sp4 = 0.0, sp8 = 0.0;  // 512^3 speedups feeding the gate
  for (const std::int64_t s : {std::int64_t{256}, std::int64_t{512}}) {
    const auto a = random_vec(s * s, 1);
    const auto b = random_vec(s * s, 2);
    const double flops = 2.0 * static_cast<double>(s) * s * s;

    k::set_compute_threads(1);
    std::vector<float> ref(static_cast<std::size_t>(s * s));
    const double t1 = time_best(
        reps, [&] { k::gemm_nn(a.data(), b.data(), ref.data(), s, s, s, false); });
    table.add_row({std::to_string(s), "1", TableReport::cell(gflops(flops, t1)),
                   "1.00x"});
    for (const int threads : {2, 4, 8}) {
      k::set_compute_threads(threads);
      std::vector<float> c(ref.size());
      const double t = time_best(
          reps, [&] { k::gemm_nn(a.data(), b.data(), c.data(), s, s, s, false); });
      check_match(c, ref, "gemm_nn " + std::to_string(s) + "^3 @" +
                              std::to_string(threads) + " threads");
      const double sp = t1 / t;
      if (s == 512 && threads == 4) sp4 = sp;
      if (s == 512 && threads == 8) sp8 = sp;
      table.add_row({std::to_string(s), std::to_string(threads),
                     TableReport::cell(gflops(flops, t)),
                     TableReport::cell(sp, 2) + "x"});
    }
    k::set_compute_threads(1);
  }
  table.print(std::cout);
  std::cout << "(hardware threads on this host: " << cores << ")\n";

  // Parallel-efficiency floor: the tile partitioner must actually buy
  // wall-clock on multi-core hosts.  Thread counts above the core count
  // only oversubscribe, so each floor applies where the cores exist to
  // meet it; on smaller hosts the study still runs (correctness checks
  // above) but the floor is reported N/A.
  if (cores >= 8) {
    const bool ok = sp8 >= 3.0 && sp4 >= 2.0;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": 512^3 nn speedup @8 threads = " << TableReport::cell(sp8, 2)
              << "x (floor 3.00x), @4 threads = " << TableReport::cell(sp4, 2)
              << "x (floor 2.00x)\n";
    if (!ok) g_gate_ok = false;
  } else if (cores >= 4) {
    const bool ok = sp4 >= 2.0;
    std::cout << (ok ? "PASS" : "FAIL")
              << ": 512^3 nn speedup @4 threads = " << TableReport::cell(sp4, 2)
              << "x (floor 2.00x; the 8-thread floor needs an 8-core host)\n";
    if (!ok) g_gate_ok = false;
  } else {
    std::cout << "NOTE: host has " << cores
              << " core(s); the scaling floors (>=2.00x @4 threads, >=3.00x @8 "
                 "threads, 512^3) apply to >=4-core hosts.\n";
  }

  // Per-worker utilization of the pool during a max-thread burst: flat GF/s
  // above shows *that* scaling stops; this table shows *why* — either the
  // workers are busy but contending (busy share high, GF/s flat: memory
  // bound) or they starve behind the inline tile range (idle share high:
  // dispatch bound).  The submitting thread runs part 0 inline and is not
  // a pool worker, so it has no row here.
  print_banner(std::cout, "pool worker utilization (blocked nn, 512^3, max threads)");
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t su = 512;
  const auto au = random_vec(su * su, 1);
  const auto bu = random_vec(su * su, 2);
  k::set_compute_threads(8);
  pool.reset_stats();
  std::vector<float> c(static_cast<std::size_t>(su * su));
  for (int r = 0; r < reps; ++r)
    k::gemm_nn(au.data(), bu.data(), c.data(), su, su, su, false);
  k::set_compute_threads(1);
  const std::vector<ThreadStats> stats = pool.stats();
  TableReport util({"pool worker", "busy s", "idle s", "busy share", "tasks"});
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const double wall = stats[i].busy_seconds + stats[i].idle_seconds;
    util.add_row({std::to_string(i), TableReport::cell(stats[i].busy_seconds, 4),
                  TableReport::cell(stats[i].idle_seconds, 4),
                  TableReport::cell_pct(wall > 0.0 ? stats[i].busy_seconds / wall : 0.0),
                  std::to_string(stats[i].tasks)});
  }
  util.print(std::cout);
}

// ---------------------------------------------------------------------------
// Pool wake cost: what kParallelFlopThreshold keeps search kernels from paying
// ---------------------------------------------------------------------------

/// Busy-wait `us` microseconds on the calling thread while the pool sleeps.
void spin_us(int us) {
  const WallTimer work;
  while (work.seconds() * 1e6 < us) {
  }
}

/// The q-quantile of `xs` (sorted in place).
double quantile(std::vector<double>& xs, double q) {
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
}

/// An empty 4-part parallel_tiles dispatch on the global pool, timed after
/// 0, 50 and 200 us of serial work on the calling thread, which is how long
/// the workers sleep between the kernels of a serial search.  A whole conv
/// at the search's shapes takes 10-400 us.
void pool_wake_study(bool smoke) {
  print_banner(std::cout, "pool wake cost (empty 4-part dispatch after serial work)");
  const int reps = smoke ? 200 : 2000;
  std::vector<std::string> header = {"dispatch"};
  std::vector<std::string> row = {"empty 4-part"};
  for (const int work_us : {0, 50, 200}) {
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      spin_us(work_us);
      const WallTimer timer;
      parallel_tiles(4, 4, [](int, std::int64_t, std::int64_t) {});
      us.push_back(timer.seconds() * 1e6);
    }
    const std::string after = " us after " + std::to_string(work_us) + " us";
    header.insert(header.end(), {"p50" + after, "p99" + after});
    row.insert(row.end(), {TableReport::cell(quantile(us, 0.5), 1),
                           TableReport::cell(quantile(us, 0.99), 1)});
  }
  TableReport table(header);
  table.add_row(row);
  table.print(std::cout);
}

// ---------------------------------------------------------------------------
// Convolution: direct loops vs GEMM through patch index tables
// ---------------------------------------------------------------------------

void conv_study(bool smoke) {
  print_banner(std::cout, "conv forward/backward GFLOP/s (direct vs blocked)");
  k::set_compute_threads(1);
  const int reps = smoke ? 2 : 4;

  k::ConvGeom g;
  g.n = smoke ? 2 : 8;
  g.h = 32;
  g.w = 32;
  g.cin = 16;
  g.kh = 3;
  g.kw = 3;
  g.cout = 32;
  g.oh = 32;
  g.ow = 32;
  g.stride = 1;
  g.pad_h = 1;
  g.pad_w = 1;

  const auto x = random_vec(g.n * g.h * g.w * g.cin, 11);
  const auto w = random_vec(g.kh * g.kw * g.cin * g.cout, 12);
  const auto bias = random_vec(g.cout, 13);
  const auto dy = random_vec(g.patch_rows() * g.cout, 14);
  const std::int64_t x_size = g.n * g.h * g.w * g.cin;
  const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;

  std::vector<float> y_direct(static_cast<std::size_t>(g.patch_rows() * g.cout));
  std::vector<float> y_blocked(y_direct.size());
  const double fwd_flops = static_cast<double>(g.flops());
  const auto [t_fwd_direct, t_fwd_blocked] = time_best_pair(
      reps,
      [&] { k::naive::conv_forward(x.data(), w.data(), bias.data(), y_direct.data(), g); },
      [&] { k::conv_forward(x.data(), w.data(), bias.data(), y_blocked.data(), g); });
  check_match(y_blocked, y_direct, "conv_forward");

  const auto run_backward = [&](auto&& backward) {
    std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f);
    std::vector<float> dw(static_cast<std::size_t>(w_size), 0.0f);
    std::vector<float> db(static_cast<std::size_t>(g.cout), 0.0f);
    backward(x.data(), w.data(), dy.data(), dx.data(), dw.data(), db.data(), g);
    return dx;
  };
  // dw and dx each cost one forward's useful FLOPs (db is O(patches)).
  const double bwd_flops = 2.0 * fwd_flops;
  std::vector<float> dx_direct, dx_blocked;
  const auto [t_bwd_direct, t_bwd_blocked] = time_best_pair(
      reps, [&] { dx_direct = run_backward(k::naive::conv_backward); },
      [&] { dx_blocked = run_backward(k::conv_backward); });
  check_match(dx_blocked, dx_direct, "conv_backward dx");

  TableReport table({"pass", "direct GF/s", "blocked GF/s", "speedup"});
  table.add_row({"forward", TableReport::cell(gflops(fwd_flops, t_fwd_direct)),
                 TableReport::cell(gflops(fwd_flops, t_fwd_blocked)),
                 TableReport::cell(t_fwd_direct / t_fwd_blocked, 2) + "x"});
  table.add_row({"backward", TableReport::cell(gflops(bwd_flops, t_bwd_direct)),
                 TableReport::cell(gflops(bwd_flops, t_bwd_blocked)),
                 TableReport::cell(t_bwd_direct / t_bwd_blocked, 2) + "x"});
  table.print(std::cout);
  std::cout << "geometry: n=" << g.n << " 32x32x16 -> 3x3x32, stride 1, same pad\n";
}

// ---------------------------------------------------------------------------
// Convolution at the shapes the search trains
// ---------------------------------------------------------------------------

/// "same"-padded 3x3 conv of n images (hw x hw x cin) to cout channels.
k::ConvGeom same3x3(std::int64_t n, std::int64_t hw, std::int64_t cin, std::int64_t cout) {
  k::ConvGeom g;
  g.n = n;
  g.h = g.w = g.oh = g.ow = hw;
  g.cin = cin;
  g.kh = g.kw = 3;
  g.cout = cout;
  g.pad_h = g.pad_w = 1;
  return g;
}

/// Blocked vs naive:: per pass at real batch and input sizes, where the
/// small-shape path (narrow micro-tiles, in-place operands, patches read
/// through index tables) decides the cost.  A network's first layer
/// computes no input gradient, so "backward, no dx" is the pass that layer
/// actually trains with; the naive reference always computes dx, so that
/// row has no naive column.
void search_shape_study(bool smoke) {
  print_banner(std::cout, "conv at search shapes, single thread (naive vs blocked)");
  k::set_compute_threads(1);
  const int reps = smoke ? 20 : 200;
  struct ConvShape {
    const char* name;
    k::ConvGeom g;
  };
  const ConvShape layers[] = {
      {"cifar first 16x8x8x3->8", same3x3(16, 8, 3, 8)},
      {"cifar mid 16x4x4x8->8", same3x3(16, 4, 8, 8)},
      {"cifar 16x8x8x16->24 (K=144)", same3x3(16, 8, 16, 24)},
      {"nt3 conv1d 8x384x1 k7->8", k::conv1d_geom(8, 384, 1, 7, 8, 378, 1, 0)},
  };
  TableReport table({"layer", "pass", "naive us", "blocked us", "naive GF/s",
                     "blocked GF/s", "speedup"});
  const auto us = [](double seconds) { return TableReport::cell(seconds * 1e6, 1); };
  for (const ConvShape& l : layers) {
    const k::ConvGeom& g = l.g;
    const std::int64_t x_size = g.n * g.h * g.w * g.cin;
    const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;
    const auto x = random_vec(x_size, 21);
    const auto w = random_vec(w_size, 22);
    const auto bias = random_vec(g.cout, 23);
    const auto dy = random_vec(g.patch_rows() * g.cout, 24);
    const double fwd_flops = static_cast<double>(g.flops());

    std::vector<float> y_naive(static_cast<std::size_t>(g.patch_rows() * g.cout));
    std::vector<float> y_blocked(y_naive.size());
    const auto [t_fwd_naive, t_fwd_blocked] = time_best_pair(
        reps,
        [&] { k::naive::conv_forward(x.data(), w.data(), bias.data(), y_naive.data(), g); },
        [&] { k::conv_forward(x.data(), w.data(), bias.data(), y_blocked.data(), g); });
    check_match(y_blocked, y_naive, std::string(l.name) + " forward");

    struct Grads {
      std::vector<float> dx, dw, db;
    };
    const auto backward = [&](auto&& fn, bool want_dx) {
      Grads gr{std::vector<float>(static_cast<std::size_t>(x_size), 0.0f),
               std::vector<float>(static_cast<std::size_t>(w_size), 0.0f),
               std::vector<float>(static_cast<std::size_t>(g.cout), 0.0f)};
      fn(x.data(), w.data(), dy.data(), want_dx ? gr.dx.data() : nullptr, gr.dw.data(),
         gr.db.data(), g);
      return gr;
    };
    Grads naive_grads, blocked_grads, params_only;
    const auto [t_bwd_naive, t_bwd_blocked] = time_best_pair(
        reps, [&] { naive_grads = backward(k::naive::conv_backward, true); },
        [&] { blocked_grads = backward(k::conv_backward, true); });
    check_match(blocked_grads.dx, naive_grads.dx, std::string(l.name) + " backward dx");
    check_match(blocked_grads.dw, naive_grads.dw, std::string(l.name) + " backward dw");
    const double t_params =
        time_best(reps, [&] { params_only = backward(k::conv_backward, false); });
    check_match(params_only.dw, naive_grads.dw, std::string(l.name) + " no-dx dw");
    check_match(params_only.db, naive_grads.db, std::string(l.name) + " no-dx db");

    table.add_row({l.name, "forward", us(t_fwd_naive), us(t_fwd_blocked),
                   TableReport::cell(gflops(fwd_flops, t_fwd_naive)),
                   TableReport::cell(gflops(fwd_flops, t_fwd_blocked)),
                   TableReport::cell(t_fwd_naive / t_fwd_blocked, 2) + "x"});
    table.add_row({l.name, "backward", us(t_bwd_naive), us(t_bwd_blocked),
                   TableReport::cell(gflops(2.0 * fwd_flops, t_bwd_naive)),
                   TableReport::cell(gflops(2.0 * fwd_flops, t_bwd_blocked)),
                   TableReport::cell(t_bwd_naive / t_bwd_blocked, 2) + "x"});
    table.add_row({l.name, "backward, no dx", "-", us(t_params), "-",
                   TableReport::cell(gflops(fwd_flops, t_params)),
                   TableReport::cell(t_bwd_naive / t_params, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "(the \"backward, no dx\" speedup is against the naive full backward)\n";
}

// ---------------------------------------------------------------------------
// Validation-pass convs: the only search kernels the pool splits
// ---------------------------------------------------------------------------

/// Trainer::evaluate runs the whole validation set as one batch, so at data
/// scale 1 a validation forward can cross kParallelFlopThreshold where no
/// training batch does: CIFAR's 96 images through a "same" 16->24 conv at
/// 8x8 or a 24->24 conv at 6x6-8x8.  (NT3's 48 validation rows into a
/// 128-unit dense layer after an unpooled 8-channel conv are 37.7 MFLOP too,
/// but one 48x128 output tile, which runs on the caller at any thread
/// count.)  Each conv runs on the calling thread and split over 4,
/// alternating, every call after 200 us of serial work (the pool sleeps
/// through a candidate's training epoch before its validation pass).
void validation_kernel_study(bool smoke) {
  print_banner(std::cout, "validation-pass convs above the cut (1 vs 4 threads, after serial work)");
  const int reps = smoke ? 20 : 200;
  TableReport table({"conv forward", "MFLOP", "p50 us 1 thread", "p50 us 4 threads",
                     "p90 us 1 thread", "p90 us 4 threads", "p50 speedup"});
  const std::pair<const char*, k::ConvGeom> convs[] = {
      {"cifar val 96x8x8x16->24", same3x3(96, 8, 16, 24)},
      {"cifar val 96x8x8x24->24", same3x3(96, 8, 24, 24)},
      {"cifar val 96x6x6x24->24", same3x3(96, 6, 24, 24)},
  };
  for (const auto& [name, g] : convs) {
    const auto x = random_vec(g.n * g.h * g.w * g.cin, 31);
    const auto w = random_vec(g.kh * g.kw * g.cin * g.cout, 32);
    const auto bias = random_vec(g.cout, 33);
    std::vector<float> serial(static_cast<std::size_t>(g.patch_rows() * g.cout));
    std::vector<float> split(serial.size());
    std::vector<double> us1, us4;
    for (int r = 0; r < reps; ++r) {
      for (const int threads : {1, 4}) {
        k::set_compute_threads(threads);
        spin_us(200);
        const WallTimer timer;
        k::conv_forward(x.data(), w.data(), bias.data(),
                        threads == 1 ? serial.data() : split.data(), g);
        (threads == 1 ? us1 : us4).push_back(timer.seconds() * 1e6);
      }
    }
    k::set_compute_threads(1);
    std::vector<float> want(serial.size());
    k::naive::conv_forward(x.data(), w.data(), bias.data(), want.data(), g);
    check_match(serial, want, std::string(name) + " forward on 1 thread");
    check_match(split, want, std::string(name) + " forward on 4 threads");
    const double p50_1 = quantile(us1, 0.5), p50_4 = quantile(us4, 0.5);
    table.add_row({name, TableReport::cell(static_cast<double>(g.flops()) / 1e6, 1),
                   TableReport::cell(p50_1, 1), TableReport::cell(p50_4, 1),
                   TableReport::cell(quantile(us1, 0.9), 1),
                   TableReport::cell(quantile(us4, 0.9), 1),
                   TableReport::cell(p50_1 / p50_4, 2) + "x"});
  }
  table.print(std::cout);
}

/// One Adam step over the median CIFAR, Uno and NT3 model sizes of a
/// search: the vector kernel against the scalar reference loop, each
/// stepping its own copy of w, m and v, which must end byte-identical.
void search_optimizer_study(bool smoke) {
  print_banner(std::cout, "Adam update at search model sizes, single thread (naive vs kernel)");
  const int reps = smoke ? 20 : 200;
  struct Model {
    const char* name;
    std::int64_t params;
  };
  const Model models[] = {{"cifar median", 13000}, {"uno median", 20000}, {"nt3 median", 196000}};
  const k::AdamStep step{.alpha = 1e-3, .epsilon = 1e-7, .beta1 = 0.9f, .beta2 = 0.999f};
  TableReport table({"model", "params", "naive ns/param", "kernel ns/param", "speedup"});
  for (const Model& md : models) {
    const std::int64_t n = md.params;
    const auto g = random_vec(n, 25);
    std::vector<float> w_naive = random_vec(n, 26);
    std::vector<float> m_naive(w_naive.size(), 0.0f), v_naive(w_naive.size(), 0.0f);
    std::vector<float> w_kernel = w_naive, m_kernel = m_naive, v_kernel = v_naive;
    const auto [t_naive, t_kernel] = time_best_pair(
        reps,
        [&] {
          k::naive::adam_update(w_naive.data(), g.data(), m_naive.data(), v_naive.data(), n,
                                step);
        },
        [&] {
          k::adam_update(w_kernel.data(), g.data(), m_kernel.data(), v_kernel.data(), n, step);
        });
    check_match(w_kernel, w_naive, std::string(md.name) + " adam w");
    check_match(m_kernel, m_naive, std::string(md.name) + " adam m");
    check_match(v_kernel, v_naive, std::string(md.name) + " adam v");
    const auto ns = [n](double seconds) {
      return TableReport::cell(seconds / static_cast<double>(n) * 1e9, 2);
    };
    table.add_row({md.name, std::to_string(n), ns(t_naive), ns(t_kernel),
                   TableReport::cell(t_naive / t_kernel, 2) + "x"});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      // Hide the flag from google-benchmark's parser.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  swt::bench::BenchResultFile bench_json("bench_gemm");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  swt::bench::print_repro_note("compute-kernel throughput (kernel layer self-study)");
  gemm_single_thread_study(smoke);
  gemm_scaling_study(smoke);
  pool_wake_study(smoke);
  conv_study(smoke);
  search_shape_study(smoke);
  validation_kernel_study(smoke);
  search_optimizer_study(smoke);
  std::cout << (g_all_match
                    ? "\nPASS: every kernel result is bit-identical to its reference.\n"
                    : "\nFAIL: kernels diverged from the naive reference.\n");
  if (!g_gate_ok)
    std::cout << "FAIL: thread-scaling floor not met (see scaling study above).\n";
  return g_all_match && g_gate_ok ? 0 : 1;
}
