// Differential harness for the blocked compute kernels: every blocked
// result must equal the retained naive:: reference (same reduction order,
// so equality is exact) — the contract the trace bit-reproducibility of the
// whole search stack rests on.
#include <gtest/gtest.h>

#include <cmath>
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
// Adam update: the vector loop against the scalar reference, through the
// values that take the update off its usual path.
// -----------------------------------------------------------------------

TEST(Kernels, AdamUpdateMatchesNaive) {
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
  for (const std::int64_t n : {0, 1, 3, 4, 7, 8, 15, 16, 17, 4099}) {
    for (const float wd : {0.0f, 5e-4f}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " wd=" + std::to_string(wd));
      const auto size = static_cast<std::size_t>(n);
      std::vector<float> w = random_vec(n, 31);
      std::vector<float> m(size, 0.0f), v(size, 0.0f);
      std::vector<float> w_ref = w, m_ref = m, v_ref = v;
      k::AdamStep step{.epsilon = 1e-7, .beta1 = 0.9f, .beta2 = 0.999f, .weight_decay = wd};
      for (int t = 1; t <= 200; ++t) {
        std::vector<float> g = random_vec(n, 1000 + static_cast<std::uint64_t>(t));
        // Every fourth element takes a rotating special value; the rest stay
        // finite, so most lanes keep exercising ordinary arithmetic.
        for (std::size_t i = 0; i < size; i += 4)
          g[i] = specials[(i / 4 + static_cast<std::size_t>(t)) % kSpecials];
        step.alpha = 1e-3 * std::sqrt(1.0 - std::pow(0.999, t)) / (1.0 - std::pow(0.9, t));
        k::adam_update(w.data(), g.data(), m.data(), v.data(), n, step);
        k::naive::adam_update(w_ref.data(), g.data(), m_ref.data(), v_ref.data(), n, step);
      }
      // Any NaN matches any NaN.  When two NaNs meet in one add or
      // multiply, x86 returns the first operand's, and the compiler orders
      // commutative operands as it likes: an -O2 build returned the
      // default -NaN where the reference kept the gradient's +NaN.
      for (std::vector<float>* x : {&w, &w_ref, &m, &m_ref, &v, &v_ref})
        for (float& e : *x)
          if (std::isnan(e)) e = std::numeric_limits<float>::quiet_NaN();
      expect_equal(w, w_ref, "adam w");
      expect_equal(m, m_ref, "adam m");
      expect_equal(v, v_ref, "adam v");
    }
  }
}

}  // namespace
}  // namespace swt
