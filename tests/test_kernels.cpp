// Differential harness for the blocked compute kernels: every blocked
// result must equal the retained naive:: reference (same reduction order,
// so equality is exact) — the contract the trace bit-reproducibility of the
// whole search stack rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace swt {
namespace {

namespace k = kernels;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Bit-exactness gate: memcmp first (the actual contract), elementwise only
/// to name the first element whose bytes differ (a NaN payload or a -0.0
/// mismatch included).
void expect_equal(const std::vector<float>& got, const std::vector<float>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size());
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0)
    return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, &got[i], sizeof g);
    std::memcpy(&w, &want[i], sizeof w);
    ASSERT_EQ(g, w) << what << " diverges from reference at flat index " << i << ": "
                    << got[i] << " vs " << want[i];
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};

/// Parameterized sweep: rotates each probe extent — degenerate (1), ragged
/// primes, and every blocking-factor boundary +/-1 (MR=4, NR=16, MC=64,
/// KC=128, NC=128) — through each of the three axes with ragged co-extents,
/// plus degenerate-zero and panel-crossing triples, the narrow output widths
/// the search trains (each micro-tile lane width 4/8/16 and its tails, with
/// one and several k panels) and its long-reduction weight-gradient shapes.
/// Kept to ~1e8 scalar ops total so the sweep stays fast under TSan.
std::vector<GemmShape> sweep_shapes() {
  std::vector<GemmShape> shapes = {
      // Degenerate extents: empty output and empty reduction.
      {0, 8, 8}, {8, 0, 8}, {8, 8, 0}, {1, 1, 1},
      // Hand-picked panel-crossing / multi-tile triples.
      {4, 16, 8}, {64, 64, 64}, {70, 150, 40}, {129, 257, 130}, {255, 33, 129},
  };
  // Probe extents: 1, small ragged, and tile-boundary +/-1 for each factor.
  const std::int64_t probes[] = {1, 3, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257};
  for (const std::int64_t p : probes) {
    shapes.push_back({p, 37, 29});  // m axis: MR/MC tails
    shapes.push_back({37, p, 29});  // n axis: NR/NC tails
    shapes.push_back({37, 29, p});  // k axis: KC tails
  }
  // Narrow n: A is read in place for either orientation, and B in place.
  for (const std::int64_t n : {4, 8, 12, 20, 24}) {
    shapes.push_back({37, n, 29});
    shapes.push_back({70, n, 300});  // two MC tiles, three k panels
  }
  // Conv dw = col^T * dy of NT3's Conv1D (7 taps) and CIFAR's first layer
  // (3x3x3): tiny m x n, reductions over every patch of the batch.
  shapes.push_back({7, 8, 3072});
  shapes.push_back({27, 8, 1024});
  // Dense backward dx = dy * W^T (nt) of NT3, Uno and the CIFAR head, whose
  // B panels pack through 8 x 8 register transposes; then ragged n and k,
  // so both 8 x 8 tails run and B's row stride is no multiple of 8.
  for (const GemmShape s : {GemmShape{8, 3072, 128}, GemmShape{8, 208, 64},
                            GemmShape{16, 576, 10}, GemmShape{8, 61, 37}, GemmShape{5, 29, 13}})
    shapes.push_back(s);
  return shapes;
}

const std::vector<GemmShape> kGemmShapes = sweep_shapes();

class GemmDifferential : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmDifferential, AllVariantsMatchNaive) {
  const auto [m, n, kk] = GetParam();
  const auto a = random_vec(std::max<std::int64_t>(m * kk, kk * m), 1000 + m);
  const auto b = random_vec(std::max<std::int64_t>(kk * n, n * kk), 2000 + n);
  const auto c0 = random_vec(m * n, 3000 + kk);  // accumulate seed content

  struct Variant {
    const char* name;
    void (*blocked)(const float*, const float*, float*, std::int64_t, std::int64_t,
                    std::int64_t, bool);
    void (*naive)(const float*, const float*, float*, std::int64_t, std::int64_t,
                  std::int64_t, bool);
  };
  const Variant variants[] = {
      {"gemm_nn", &k::gemm_nn, &k::naive::gemm_nn},
      {"gemm_tn", &k::gemm_tn, &k::naive::gemm_tn},
      {"gemm_nt", &k::gemm_nt, &k::naive::gemm_nt},
  };
  for (const auto& v : variants) {
    for (const bool accumulate : {false, true}) {
      std::vector<float> got = c0, want = c0;
      v.blocked(a.data(), b.data(), got.data(), m, n, kk, accumulate);
      v.naive(a.data(), b.data(), want.data(), m, n, kk, accumulate);
      expect_equal(got, want,
                   (std::string(v.name) + (accumulate ? "+acc" : "")).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmDifferential, ::testing::ValuesIn(kGemmShapes));

// Many concurrent callers — the shape of wavefront evaluation, and the case
// TSan watches: per-thread pack buffers and scratch must never be shared,
// and every caller must read back identical bytes.
TEST(Kernels, ConcurrentCallersBitIdentical) {
  const std::int64_t m = 300, n = 340, kk = 190;
  const auto a = random_vec(m * kk, 31);
  const auto b = random_vec(kk * n, 32);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  k::naive::gemm_nn(a.data(), b.data(), ref.data(), m, n, kk);

  constexpr int kCallers = 4;
  std::vector<std::vector<float>> out(kCallers,
                                      std::vector<float>(ref.size()));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      k::gemm_nn(a.data(), b.data(), out[static_cast<std::size_t>(t)].data(), m, n, kk);
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(0, std::memcmp(out[static_cast<std::size_t>(t)].data(), ref.data(),
                             ref.size() * sizeof(float)))
        << "caller " << t;
  }
}

// -----------------------------------------------------------------------
// Convolution: index-table path vs direct naive loops
// -----------------------------------------------------------------------

struct ConvCase {
  std::int64_t n, h, w, cin, kh, kw, cout, stride, pad_h, pad_w;
  std::int64_t oh = 0, ow = 0;  // 0: derived from symmetric padding
};

// Output extents default to (in + 2*pad - k) / stride + 1, which "same" at
// stride 1 with an odd kernel and every "valid" case meet.  A case whose
// trailing padding exceeds its leading one (a conv layer's
// pad = max(0, (out-1)*stride + k - in) / 2 with an odd remainder) sets
// oh/ow itself.
k::ConvGeom make_geom(const ConvCase& c) {
  k::ConvGeom g;
  g.n = c.n;
  g.h = c.h;
  g.w = c.w;
  g.cin = c.cin;
  g.kh = c.kh;
  g.kw = c.kw;
  g.cout = c.cout;
  g.stride = c.stride;
  g.pad_h = c.pad_h;
  g.pad_w = c.pad_w;
  g.oh = c.oh > 0 ? c.oh : (c.h + 2 * c.pad_h - c.kh) / c.stride + 1;
  g.ow = c.ow > 0 ? c.ow : (c.w + 2 * c.pad_w - c.kw) / c.stride + 1;
  return g;
}

const ConvCase kConvCases[] = {
    {2, 6, 7, 3, 3, 3, 4, 1, 1, 1},   // stride-1 "same"
    {2, 6, 7, 3, 3, 3, 4, 1, 0, 0},   // stride-1 "valid"
    {1, 7, 9, 2, 3, 3, 3, 2, 1, 1},   // stride-2 padded
    {2, 8, 8, 1, 3, 3, 2, 2, 0, 0},   // stride-2 "valid"
    {1, 1, 1, 1, 1, 1, 1, 1, 0, 0},   // 1x1 degenerate
    {3, 1, 11, 2, 1, 1, 3, 2, 0, 1},  // 1-D geometry (h = kh = 1), padded strided
    {2, 9, 9, 5, 3, 3, 17, 2, 1, 1},  // cout just past NR=16, strided + padded
    {1, 12, 12, 3, 3, 3, 33, 2, 0, 0},  // cout crosses the 2*NR micro-tile, strided
    {1, 8, 8, 4, 3, 3, 129, 1, 1, 1},   // cout crosses the NC=128 panel boundary
    {16, 8, 8, 3, 3, 3, 8, 1, 1, 1},    // CIFAR's first layer, "same"
    {16, 8, 8, 16, 3, 3, 24, 1, 1, 1},  // CIFAR 16->24, K = 144 > KC
    {16, 4, 4, 24, 3, 3, 24, 1, 1, 1},  // CIFAR 24->24, K = 216 > KC: the largest
    {16, 1, 1, 8, 3, 3, 12, 1, 1, 1},   // 1x1 input, "same" 3x3: only the centre tap
    {8, 1, 384, 1, 1, 7, 8, 1, 0, 0},   // NT3's Conv1D, "valid"
    // "same" 3x3 at stride 2 on 8x8: leading pad 0, trailing 1.
    {2, 8, 8, 3, 3, 3, 5, 2, 0, 0, 4, 4},
    // "same" 4x4 at stride 1 on 6x6: leading pad 1, trailing 2.
    {2, 6, 6, 2, 4, 4, 6, 1, 1, 1, 6, 6},
    // 75.5 MFLOP, and the 64-wide output packs the indexed A.
    {16, 16, 16, 16, 3, 3, 64, 1, 1, 1},
};

class ConvDifferential : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvDifferential, ForwardMatchesNaive) {
  const k::ConvGeom g = make_geom(GetParam());
  const auto x = random_vec(g.n * g.h * g.w * g.cin, 11);
  const auto w = random_vec(g.kh * g.kw * g.cin * g.cout, 12);
  const auto bias = random_vec(g.cout, 13);
  std::vector<float> want(static_cast<std::size_t>(g.patch_rows() * g.cout));
  k::naive::conv_forward(x.data(), w.data(), bias.data(), want.data(), g);
  std::vector<float> got(want.size());
  k::conv_forward(x.data(), w.data(), bias.data(), got.data(), g);
  expect_equal(got, want, "conv_forward");
}

TEST_P(ConvDifferential, BackwardMatchesNaive) {
  const k::ConvGeom g = make_geom(GetParam());
  const std::int64_t x_size = g.n * g.h * g.w * g.cin;
  const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;
  const auto x = random_vec(x_size, 21);
  const auto w = random_vec(w_size, 22);
  const auto dy = random_vec(g.patch_rows() * g.cout, 23);
  // dw/db are accumulated into; seed them so the test covers that contract.
  const auto dw0 = random_vec(w_size, 24);
  const auto db0 = random_vec(g.cout, 25);

  std::vector<float> dx_want(static_cast<std::size_t>(x_size), 0.0f);
  std::vector<float> dw_want = dw0, db_want = db0;
  k::naive::conv_backward(x.data(), w.data(), dy.data(), dx_want.data(),
                          dw_want.data(), db_want.data(), g);
  std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f);
  std::vector<float> dw = dw0, db = db0;
  k::conv_backward(x.data(), w.data(), dy.data(), dx.data(), dw.data(), db.data(), g);
  expect_equal(dx, dx_want, "conv_backward dx");
  expect_equal(dw, dw_want, "conv_backward dw");
  expect_equal(db, db_want, "conv_backward db");
  // A first layer requests no input gradient: dw and db must not change.
  std::vector<float> dw_only = dw0, db_only = db0;
  k::conv_backward(x.data(), w.data(), dy.data(), /*dx=*/nullptr, dw_only.data(),
                   db_only.data(), g);
  expect_equal(dw_only, dw_want, "conv_backward(dx = null) dw");
  expect_equal(db_only, db_want, "conv_backward(dx = null) db");
}

/// Every (patch, tap) the tables address reads the input pixel the direct
/// loop reads, or +0.0f where the tap leaves the image.  Run on a fresh
/// thread, whose scratch is allocated at exactly the padded extent, so a
/// table entry past it is a heap overflow under ASan.
TEST_P(ConvDifferential, TablesReadEveryTap) {
  const k::ConvGeom g = make_geom(GetParam());
  std::vector<float> x(static_cast<std::size_t>(g.n * g.h * g.w * g.cin));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i + 1);
  std::int64_t mismatches = 0;
  std::thread([&] {
    const k::PatchTables col = k::patch_tables(x.data(), g);
    std::int64_t p = 0;
    for (std::int64_t ni = 0; ni < g.n; ++ni)
      for (std::int64_t yo = 0; yo < g.oh; ++yo)
        for (std::int64_t xo = 0; xo < g.ow; ++xo, ++p) {
          std::int64_t t = 0;
          for (std::int64_t kh = 0; kh < g.kh; ++kh)
            for (std::int64_t kw = 0; kw < g.kw; ++kw)
              for (std::int64_t ic = 0; ic < g.cin; ++ic, ++t) {
                const std::int64_t yi = yo * g.stride + kh - g.pad_h;
                const std::int64_t xi = xo * g.stride + kw - g.pad_w;
                const bool inside = yi >= 0 && yi < g.h && xi >= 0 && xi < g.w;
                const std::int64_t at = ((ni * g.h + yi) * g.w + xi) * g.cin + ic;
                const float want = inside ? x[static_cast<std::size_t>(at)] : 0.0f;
                const float got = col.xpad[col.base[p] + col.off[t]];
                if (std::memcmp(&got, &want, sizeof got) != 0) ++mismatches;
              }
        }
  }).join();
  EXPECT_EQ(0, mismatches);
}

INSTANTIATE_TEST_SUITE_P(Cases, ConvDifferential, ::testing::ValuesIn(kConvCases));

TEST(Kernels, PatchTablesLayoutAndPadding) {
  // 1 image, 3x3x1 input, 3x3 kernel, stride 1, pad 1: the centre patch is
  // the whole image; the corner patch has a zero border.
  k::ConvGeom g;
  g.n = 1;
  g.h = 3;
  g.w = 3;
  g.cin = 1;
  g.kh = 3;
  g.kw = 3;
  g.cout = 1;
  g.oh = 3;
  g.ow = 3;
  g.stride = 1;
  g.pad_h = 1;
  g.pad_w = 1;
  std::vector<float> x(9);
  for (int i = 0; i < 9; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
  const k::PatchTables col = k::patch_tables(x.data(), g);
  EXPECT_NE(x.data(), col.xpad) << "a padded conv reads a zero-padded copy";
  const auto at = [&](int p, int t) { return col.xpad[col.base[p] + col.off[t]]; };
  // Patch (yo=1, xo=1) = row 4: all nine pixels in raster order.
  for (int i = 0; i < 9; ++i) EXPECT_EQ(static_cast<float>(i + 1), at(4, i));
  // Patch (0, 0) = row 0: first row and column fall outside -> +0.0f.
  const float expect_row0[9] = {0, 0, 0, 0, 1, 2, 0, 4, 5};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(expect_row0[i], at(0, i));
    EXPECT_FALSE(std::signbit(at(0, i)));
  }
  // "valid" at stride 1 reads the input itself, no copy.
  g.pad_h = g.pad_w = 0;
  g.oh = g.ow = 1;
  EXPECT_EQ(x.data(), k::patch_tables(x.data(), g).xpad);
}

// -----------------------------------------------------------------------
// NaN propagation: the old `if (a == 0.0f) continue;` fast path silently
// evaluated 0 * NaN as 0.  IEEE requires NaN.
// -----------------------------------------------------------------------

TEST(Kernels, ZeroTimesNanPropagates) {
  Tensor a(Shape{2, 2});  // all zeros
  Tensor b(Shape{2, 2});
  b.at(0, 0) = std::nanf("");
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  EXPECT_EQ(0.0f, c.at(0, 1));

  const Tensor c_tn = matmul_tn(b, a);  // NaN now on the A side of tn
  EXPECT_TRUE(std::isnan(c_tn.at(0, 0)));
  EXPECT_TRUE(std::isnan(c_tn.at(0, 1)));

  const Tensor c_nt = matmul_nt(a, b);
  EXPECT_TRUE(std::isnan(c_nt.at(0, 0)));
  EXPECT_TRUE(std::isnan(c_nt.at(1, 0)));
}

// -----------------------------------------------------------------------
// Adam update: the lane kernel against the scalar reference, through the
// values that take the update off its usual path.  Every case also runs in
// calls of 16, 8 and 1 elements: the 16- and 8-lane float-float blocks of
// a build with FMA (a 16-element call is two 8-lane blocks without
// AVX-512) and the double loop that takes a call's last n % 8 elements.
// -----------------------------------------------------------------------

struct AdamArrays {
  std::vector<float> w, m, v;
};

/// adam_update over all of `x` in calls of `width` elements (the last call
/// takes what is left).
void adam_by_width(AdamArrays& x, const std::vector<float>& g, std::int64_t width,
                   const k::AdamStep& step) {
  const auto n = static_cast<std::int64_t>(x.w.size());
  for (std::int64_t at = 0; at < n; at += width)
    k::adam_update(x.w.data() + at, g.data() + at, x.m.data() + at, x.v.data() + at,
                   std::min(width, n - at), step);
}

/// Any NaN matches any NaN.  When two NaNs meet in one add or multiply, x86
/// returns the first operand's, and the compiler orders commutative
/// operands as it likes: an -O2 build returned the default -NaN where the
/// reference kept the gradient's +NaN.
void expect_adam_equal(AdamArrays got, AdamArrays want) {
  for (AdamArrays* x : {&got, &want})
    for (std::vector<float>* a : {&x->w, &x->m, &x->v})
      for (float& e : *a)
        if (std::isnan(e)) e = std::numeric_limits<float>::quiet_NaN();
  expect_equal(got.w, want.w, "adam w");
  expect_equal(got.m, want.m, "adam m");
  expect_equal(got.v, want.v, "adam v");
}

/// 200 steps of n elements from m = v = 0, with gradients uniform in
/// (-scale, scale) and every fourth element a rotating special value.  The
/// kernel runs in calls of `width` elements (n: one call per step).  Step
/// 150 has alpha = 0, as the cosine schedule's last epoch does.  The states
/// are compared after every step, and every fourth element (from the third)
/// enters each step at w = 0, which leaves w = -(the step's float quotient)
/// exactly: at small gradient scales the quotient is far below the ulp of
/// an ordinary w, so a wrong one would not show in w - quotient.
void expect_adam_matches_naive(std::int64_t n, std::int64_t width, float wd, double scale) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " width=" << width << " wd=" << wd
                                    << " scale=" << scale);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -3e-39f,  // denormal
                            1e30f,
                            -1e30f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  constexpr std::size_t kSpecials = sizeof specials / sizeof specials[0];
  const auto size = static_cast<std::size_t>(n);
  AdamArrays got{random_vec(n, 31), std::vector<float>(size, 0.0f),
                 std::vector<float>(size, 0.0f)};
  AdamArrays want = got;
  k::AdamStep step{.epsilon = 1e-7, .beta1 = 0.9f, .beta2 = 0.999f, .weight_decay = wd};
  for (int t = 1; t <= 200; ++t) {
    std::vector<float> g = random_vec(n, 1000 + static_cast<std::uint64_t>(t));
    for (float& e : g) e = static_cast<float>(e * scale);
    // Every fourth element takes a rotating special value; the rest stay
    // finite, so most lanes keep exercising ordinary arithmetic.
    for (std::size_t i = 0; i < size; i += 4)
      g[i] = specials[(i / 4 + static_cast<std::size_t>(t)) % kSpecials];
    step.alpha = t == 150 ? 0.0
                          : 1e-3 * std::sqrt(1.0 - std::pow(0.999, t)) / (1.0 - std::pow(0.9, t));
    for (std::size_t i = 2; i < size; i += 4) got.w[i] = want.w[i] = 0.0f;
    adam_by_width(got, g, width, step);
    k::naive::adam_update(want.w.data(), g.data(), want.m.data(), want.v.data(), n, step);
    SCOPED_TRACE("step " + std::to_string(t));
    expect_adam_equal(got, want);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Kernels, AdamUpdateMatchesNaive) {
  // Whole-array calls at every block and tail size.
  for (const std::int64_t n : {0, 1, 3, 4, 7, 8, 15, 16, 17, 24, 31, 4099})
    for (const float wd : {0.0f, 5e-4f}) expect_adam_matches_naive(n, n, wd, 1.0);
  // Gradient scales from near the denormals to near the square root of
  // FLT_MAX: below ~1e-21 v underflows to 0, and below ~1e-26 |alpha*m| is
  // under the 2^-90 the float-float lanes need.  At 1e-32 and 1e-30 the
  // quotient is still at least 2^-100, so only that guard sends those lanes
  // to double; at 1e-35 the quotient is below 2^-100 too.
  for (const double scale : {1e-38, 1e-35, 1e-32, 1e-30, 1e-25, 1e-20, 1e-15, 1e-10, 1e-5, 1e-2,
                             1e3, 1e10, 1e15, 1e19})
    for (const std::int64_t width : {std::int64_t{1003}, std::int64_t{16}, std::int64_t{8},
                                     std::int64_t{1}})
      for (const float wd : {0.0f, 5e-4f}) expect_adam_matches_naive(1003, width, wd, scale);
}

/// Quotients alpha*m / (sqrt(v) + eps) whose double value lies within three
/// double ulps of the midpoint between two floats, found by a scan of
/// consecutive m: the float-float sum q0 + q1 is good to about 2^-43, so it
/// lands on the wrong side of such a midpoint about as often as on the
/// right one, and only the midpoint guard keeps these lanes bit-identical.
/// (alpha and eps as double bits, m and v as float bits.)
struct AdamTie {
  std::uint64_t alpha, eps;
  std::uint32_t m, v;
};
constexpr AdamTie kAdamTies[] = {
      {0x3f34b96be9c2da30ull, 0x3e7ad7f29abcaf48ull, 0xbdf7f27au, 0x3946c55bu},  // 2 double ulps
      {0x3f34b96be9c2da30ull, 0x3e7ad7f29abcaf48ull, 0x368def88u, 0x2d91a574u},  // 3 double ulps
      {0x3f2981076a16776dull, 0x3e7ad7f29abcaf48ull, 0xba754255u, 0x33b222bcu},  // 3 double ulps
      {0x3f2981076a16776dull, 0x3e7ad7f29abcaf48ull, 0x3f34956cu, 0x3c972ed0u},  // 3 double ulps
      {0x3f2981076a16776dull, 0x3e7ad7f29abcaf48ull, 0x399364c1u, 0x328765b5u},  // 3 double ulps
      {0x3f2981076a16776dull, 0x3e7ad7f29abcaf48ull, 0xbe1ae27bu, 0x3ca26bc5u},  // 3 double ulps
      {0x3f2981076a16776dull, 0x3e7ad7f29abcaf48ull, 0xb3dd2794u, 0x29ceb195u},  // 1 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0x383778beu, 0x30205f87u},  // 0 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0xbc4fdc03u, 0x35ae9041u},  // 1 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0xb6f5fa77u, 0x2cbd562du},  // 2 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0xb935b3f4u, 0x35e042aau},  // 3 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0x34cf307au, 0x284d04dfu},  // 1 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0x3cc84890u, 0x3a8f08f1u},  // 0 double ulps
      {0x3f32d187e6929322ull, 0x3e7ad7f29abcaf48ull, 0x344e2525u, 0x2bf9974cu},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0x323a2000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0xb359e000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0xb41d2000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0x33866000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0xb2cd6000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0x334a2000u, 0x00000000u},  // 1 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0xb365e000u, 0x00000000u},  // 0 double ulps
      {0x3f847ae147ae147bull, 0x3e45798ee2308c3aull, 0x3580b000u, 0x00000000u},  // 0 double ulps
};

TEST(Kernels, AdamUpdateMatchesNaiveAtFloatMidpoints) {
  // beta1 = beta2 = 1 and g = 0 leave m and v as set, so each lane's
  // quotient is the table's.
  for (const AdamTie& tie : kAdamTies) {
    SCOPED_TRACE("m bits " + std::to_string(tie.m) + " v bits " + std::to_string(tie.v));
    const k::AdamStep step{.alpha = std::bit_cast<double>(tie.alpha),
                           .epsilon = std::bit_cast<double>(tie.eps),
                           .beta1 = 1.0f,
                           .beta2 = 1.0f};
    for (const std::int64_t width : {16, 8, 1}) {
      const auto size = static_cast<std::size_t>(width);
      AdamArrays got{std::vector<float>(size, 0.0f),
                     std::vector<float>(size, std::bit_cast<float>(tie.m)),
                     std::vector<float>(size, std::bit_cast<float>(tie.v))};
      AdamArrays want = got;
      const std::vector<float> g(size, 0.0f);
      adam_by_width(got, g, width, step);
      k::naive::adam_update(want.w.data(), g.data(), want.m.data(), want.v.data(), width, step);
      expect_adam_equal(got, want);
    }
  }
}

TEST(Kernels, AdamUpdateKeepsSignedZeros) {
  // Every sign of w, m and g at zero, beside v = 0, v > 0, v = NaN and
  // v < 0: m = +-0 steps by +-0, and w - (-0) differs from w - (+0) when w
  // is -0; a NaN square root keeps its NaN.
  const float zeros[] = {0.0f, -0.0f};
  const float vs[] = {0.0f, 1e-3f, std::numeric_limits<float>::quiet_NaN(), -1.0f};
  AdamArrays start;
  std::vector<float> g;
  for (const float w : zeros)
    for (const float m : zeros)
      for (const float grad : zeros)
        for (const float v : vs) {
          start.w.push_back(w);
          start.m.push_back(m);
          start.v.push_back(v);
          g.push_back(grad);
        }
  const auto n = static_cast<std::int64_t>(g.size());
  const k::AdamStep step{.alpha = 1e-3, .epsilon = 1e-7, .beta1 = 0.9f, .beta2 = 0.999f};
  for (const std::int64_t width : {n, std::int64_t{16}, std::int64_t{8}, std::int64_t{1}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    AdamArrays got = start, want = start;
    adam_by_width(got, g, width, step);
    k::naive::adam_update(want.w.data(), g.data(), want.m.data(), want.v.data(), n, step);
    expect_adam_equal(got, want);
  }
}

// -----------------------------------------------------------------------
// tanh: the lane kernel against the scalar fdlibm transcription, over a
// strided sweep of all 2^32 bit patterns and every branch edge of
// s_tanhf.c and s_expm1f.c, at lengths that leave every tail size.
// -----------------------------------------------------------------------

float from_bits(std::uint32_t b) {
  float f = 0.0f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

std::vector<float> tanh_inputs() {
  std::vector<float> xs;
  for (std::uint64_t b = 0; b <= 0xffffffffu; b += 4099)
    xs.push_back(from_bits(static_cast<std::uint32_t>(b)));
  // Bit patterns of |x| at both sides of a threshold, with either sign.
  const auto around = [&](std::uint32_t at, std::uint32_t radius) {
    for (std::uint32_t b = at - radius; b <= at + radius; ++b) {
      xs.push_back(from_bits(b));
      xs.push_back(from_bits(b | 0x80000000u));
    }
  };
  around(0x00000001, 1);  // +-0 and the smallest subnormals
  around(0x007fffff, 1);  // largest subnormal, smallest normal
  // s_tanhf.c: |x| < 2^-55, |x| >= 1, |x| < 22.
  around(0x24000000, 1);
  around(0x3f800000, 1);
  around(0x41b00000, 1);
  // s_expm1f.c's argument is 2|x|, whose bits are |x|'s plus one exponent
  // step: |arg| < 2^-25, <= 0.5 ln2, < 1.5 ln2 and >= 27 ln2.
  for (const std::uint32_t at : {0x33000000u, 0x3eb17218u, 0x3F851592u, 0x4195b844u})
    around(at - 0x00800000u, 1);
  // k = round(arg / ln2) steps from -2 to -3, 22 to 23 and 56 to 57 within
  // a few ulps of these |x|.
  for (const double k_half : {2.5, 22.5, 56.5})
    around(bits_of(static_cast<float>(k_half * std::log(2.0) / 2.0)), 64);
  around(0x7f7fffff, 1);  // largest finite and +-inf
  for (const std::uint32_t nan : {0x7fc00000u, 0x7fc00001u, 0x7fffffffu, 0x7fa5a5a5u,
                                  0x7f800001u, 0x7fbfffffu})
    around(nan, 0);
  return xs;
}

TEST(Kernels, TanhMatchesNaive) {
  const std::vector<float> xs = tanh_inputs();
  const auto total = static_cast<std::int64_t>(xs.size());
  std::vector<float> want(xs.size());
  k::naive::tanh(xs.data(), want.data(), total);
  // Each call must leave the poisoned floats after its n outputs alone.
  constexpr std::int64_t kSlack = 16;
  const float poison = from_bits(0x7fbadbad);
  const auto expect_untouched = [&](const std::vector<float>& out, std::int64_t from) {
    for (std::int64_t i = from; i < from + kSlack; ++i)
      ASSERT_EQ(0x7fbadbadu, bits_of(out[static_cast<std::size_t>(i)])) << "wrote index " << i;
  };
  std::vector<float> none(kSlack, poison);
  k::tanh(xs.data(), none.data(), 0);
  expect_untouched(none, 0);
  for (const std::int64_t len : {1, 15, 16, 17, 4099}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<float> got(xs.size() + kSlack, poison);
    for (std::int64_t at = 0; at < total; at += len) {
      const std::int64_t n = std::min(len, total - at);
      k::tanh(xs.data() + at, got.data() + at, n);
      expect_untouched(got, at + n);
    }
    got.resize(xs.size());
    expect_equal(got, want, "tanh");
  }
  // In place, as the header allows.
  std::vector<float> inplace = xs;
  k::tanh(inplace.data(), inplace.data(), total);
  expect_equal(inplace, want, "tanh in place");
}

}  // namespace
}  // namespace swt
