// Compute-kernel throughput study: blocked GEMM + index-table conv vs the
// retained naive:: references, all on the calling thread.
//
// Reports GFLOP/s for all three GEMM variants (naive vs blocked), the conv
// forward/backward blocked-vs-direct comparison at one large shape and at
// the shapes the search trains, Dense's backward dx GEMM at the search's
// layer sizes, the Adam update (vector kernel vs scalar loop) at its model
// sizes and tanh over an NT3 activation — all into BENCH_bench_gemm.json
// via BenchResultFile.  Every timed pair is also differentially checked
// (blocked output must equal the reference bit for bit), so the bench
// doubles as a large-shape correctness harness and exits non-zero on any
// divergence.
//
//   --smoke   trim sizes/repetitions for CI (keeps the 256^3 rows)
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
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
// Convolution: direct loops vs GEMM through patch index tables
// ---------------------------------------------------------------------------

void conv_study(bool smoke) {
  print_banner(std::cout, "conv forward/backward GFLOP/s (direct vs blocked)");
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

/// Dense backward's dx = dy * W^T (gemm_nt: dy is batch x out, W in x out)
/// at the search's layer sizes, m x n x k = batch x in x out: NT3's widest
/// and narrowest Dense after its Conv1D, an Uno tower layer and the CIFAR
/// head.  The blocked kernel packs W's rows transposed before the micro-tiles
/// read them, so with 8 or 16 rows the pack is most of the call.
void dense_backward_study(bool smoke) {
  print_banner(std::cout, "Dense backward dx (gemm_nt) at search shapes, single thread");
  const int reps = smoke ? 20 : 200;
  struct DenseShape {
    const char* name;
    std::int64_t m, n, k;
  };
  const DenseShape layers[] = {{"nt3 3072->128", 8, 3072, 128},
                               {"nt3 3072->16", 8, 3072, 16},
                               {"uno 208->64", 8, 208, 64},
                               {"cifar head 576->10", 16, 576, 10}};
  TableReport table({"layer", "m x n x k", "naive us", "blocked us", "speedup"});
  for (const DenseShape& l : layers) {
    const auto dy = random_vec(l.m * l.k, 27);
    const auto w = random_vec(l.n * l.k, 28);
    std::vector<float> dx_naive(static_cast<std::size_t>(l.m * l.n));
    std::vector<float> dx_blocked(dx_naive.size());
    const auto [t_naive, t_blocked] = time_best_pair(
        reps,
        [&] { k::naive::gemm_nt(dy.data(), w.data(), dx_naive.data(), l.m, l.n, l.k); },
        [&] { k::gemm_nt(dy.data(), w.data(), dx_blocked.data(), l.m, l.n, l.k); });
    check_match(dx_blocked, dx_naive, std::string(l.name) + " dense dx");
    table.add_row({l.name,
                   std::to_string(l.m) + "x" + std::to_string(l.n) + "x" + std::to_string(l.k),
                   TableReport::cell(t_naive * 1e6, 1), TableReport::cell(t_blocked * 1e6, 1),
                   TableReport::cell(t_naive / t_blocked, 2) + "x"});
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

/// tanh over one NT3 activation (8 x 3072 values): the std::tanh loop the
/// Activation layer ran before, the scalar fdlibm transcription and the lane
/// kernel, which must match the transcription bit for bit.  The sweep count
/// compares the transcription with the host libm over every 4099th bit
/// pattern: it describes that libm (0 where tanhf is fdlibm's, as in glibc
/// 2.36) and gates nothing, since the search never calls std::tanh.
void tanh_study(bool smoke) {
  print_banner(std::cout, "tanh over an NT3 activation, single thread");
  const int reps = smoke ? 20 : 200;
  const std::int64_t n = 8 * 3072;
  std::vector<float> x = random_vec(n, 29);
  for (float& v : x) v *= 4.0f;  // both of tanh's expm1f branches
  std::vector<float> y_std(x.size()), y_naive(x.size()), y_kernel(x.size());
  const auto [t_std, t_kernel] = time_best_pair(
      reps, [&] { for (std::size_t i = 0; i < x.size(); ++i) y_std[i] = std::tanh(x[i]); },
      [&] { k::tanh(x.data(), y_kernel.data(), n); });
  const double t_naive = time_best(reps, [&] { k::naive::tanh(x.data(), y_naive.data(), n); });
  check_match(y_kernel, y_naive, "tanh kernel");

  std::int64_t swept = 0, differ = 0;
  for (std::uint64_t b = 0; b <= 0xffffffffu; b += 4099, ++swept) {
    const auto bits = static_cast<std::uint32_t>(b);
    float v = 0.0f, ref = 0.0f;
    std::memcpy(&v, &bits, sizeof v);
    k::naive::tanh(&v, &ref, 1);
    const float libm = std::tanh(v);
    if (std::memcmp(&libm, &ref, sizeof ref) != 0) ++differ;
  }

  const auto ns = [n](double seconds) {
    return TableReport::cell(seconds / static_cast<double>(n) * 1e9, 3);
  };
  TableReport table({"loop", "ns/element", "vs std::tanh"});
  table.add_row({"std::tanh", ns(t_std), "1.00x"});
  table.add_row({"naive::tanh", ns(t_naive), TableReport::cell(t_std / t_naive, 2) + "x"});
  table.add_row({"kernel", ns(t_kernel), TableReport::cell(t_std / t_kernel, 2) + "x"});
  table.print(std::cout);
  std::cout << "host libm: " << differ << " of " << swept
            << " swept bit patterns give a std::tanh different from naive::tanh\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;
  swt::bench::BenchResultFile bench_json("bench_gemm");
  swt::bench::print_repro_note("compute-kernel throughput (kernel layer self-study)");
  gemm_single_thread_study(smoke);
  conv_study(smoke);
  search_shape_study(smoke);
  dense_backward_study(smoke);
  search_optimizer_study(smoke);
  tanh_study(smoke);
  std::cout << (g_all_match
                    ? "\nPASS: every kernel result is bit-identical to its reference.\n"
                    : "\nFAIL: kernels diverged from the naive reference.\n");
  return g_all_match ? 0 : 1;
}
