#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/counters.hpp"
#include "obs/prof/sampler.hpp"
#include "obs/span_tracer.hpp"

namespace swt::kernels {
namespace {

using std::int64_t;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void record_matmul(double seconds, int64_t flops) noexcept {
  static Gauge& seconds_g = metrics().gauge("tensor.matmul_seconds");
  static Counter& calls_c = metrics().counter("tensor.matmul_total");
  static Counter& flops_c = metrics().counter("tensor.matmul_flops_total");
  seconds_g.add(seconds);
  calls_c.add();
  flops_c.add(flops);
}

void record_conv(double seconds, int64_t flops) noexcept {
  static Gauge& seconds_g = metrics().gauge("tensor.conv_seconds");
  static Counter& calls_c = metrics().counter("tensor.conv_total");
  static Counter& flops_c = metrics().counter("tensor.conv_flops_total");
  seconds_g.add(seconds);
  calls_c.add();
  flops_c.add(flops);
}

/// Kernels of at least this many FLOPs are bracketed with the calling
/// thread's resource counters in timed(), which covers the search's 1-10
/// MFLOP kernels in prof.conv.* and prof.gemm.*.
constexpr int64_t kCounterFlopThreshold = int64_t{1} << 20;

/// Times `fn` into the given recorder only when metrics are on (two clock
/// reads per kernel call, skipped entirely otherwise).  Kernels from
/// kCounterFlopThreshold up additionally bracket the call with the calling
/// thread's resource counters, so each phase reports achieved GF/s and IPC;
/// small kernels keep the two-clock-read path so the bench_overhead gate is
/// unaffected by thousands of tiny calls per second.  A convolution's inner
/// GEMM is bracketed inside the convolution's own bracket.  FLOP-annotated
/// wall spans are emitted only while the sampling profiler is live — a
/// plain --trace-out run produces exactly the spans it used to.
template <typename Fn, typename Rec>
inline void timed(int64_t flops, Rec rec, prof::Phase phase, Fn&& fn) {
  if (!metrics_enabled()) {
    fn();
    return;
  }
  if (flops < kCounterFlopThreshold) {
    const WallTimer timer;
    fn();
    rec(timer.seconds(), flops);
    return;
  }
  prof::ThreadCounters& counters = prof::ThreadCounters::this_thread();
  const prof::CounterSample before = counters.read();
  const WallTimer timer;
  fn();
  const double seconds = timer.seconds();
  const prof::CounterSample delta = counters.read().delta(before);
  rec(seconds, flops);
  prof::record_phase(phase, seconds, flops, delta);
  SpanTracer& tracer = SpanTracer::global();
  if (tracer.enabled() && prof::CpuProfiler::global().running()) {
    const double dur_us = seconds * 1e6;
    std::vector<std::pair<std::string, std::string>> args{
        {"flops", std::to_string(flops)},
        {"gflops", std::to_string(seconds > 0.0 ? flops / seconds / 1e9 : 0.0)},
        {"cpu_s", std::to_string(delta.cpu_seconds)}};
    if (delta.hardware && delta.cycles > 0)
      args.emplace_back("ipc", std::to_string(static_cast<double>(delta.instructions) /
                                              static_cast<double>(delta.cycles)));
    tracer.complete(phase == prof::Phase::kGemm ? "gemm" : "conv", "kernel",
                    kTraceWallPid, SpanTracer::this_thread_tid(),
                    SpanTracer::wall_now_us() - dur_us, dur_us, std::move(args));
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMM — one core for nn / tn / nt
// ---------------------------------------------------------------------------
// The output C is walked in (MC x NC) tiles, and each tile in KC-deep k
// panels.  Where an operand panel's source layout differs from what the
// micro-kernel reads, it is first packed into a buffer of the calling
// thread: packing untransposes nt's B and, for wide tiles, tn's A.  Where
// packing buys nothing the panel is read in place (see gemm_tiles).
// Register micro-tiles (MR rows x one or two lane vectors) hold a C sub-tile
// across one k panel, loaded from and stored back to memory once per panel,
// so each element's chain stays `C ... + t_k + t_{k+1} ...` in ascending k —
// bit-identical to the naive loops while cutting B and C memory traffic by
// the tile factors.  Which panels are packed, and which tile width covers a
// column, changes only where a term is read from, never the terms or their
// order.
//
// The accumulator tile is held in explicit vector-extension lanes rather
// than a float[][] array: GCC's scalar-replacement gives up on a 64-float
// aggregate and spills it to the stack every k step, which is slower than
// the naive loop.  Named vector locals are register-allocated like any
// other scalar.  Lane arithmetic is element-wise float mul/add, so the
// per-element chain is untouched (every TU is compiled -ffp-contract=off,
// see the top-level CMakeLists.txt, making that true for the naive
// references too — equality holds by construction, not by codegen accident).

constexpr int64_t MR = 4;    // micro-tile rows (broadcast reuse of a B row)
constexpr int64_t NR = 16;   // widest lane vector; tiles are 32/16/8/4 columns
constexpr int64_t KC = 128;  // k panel
constexpr int64_t NC = 128;  // column panel: KC*NC*4 B = 64 KiB of B stays hot
constexpr int64_t MC = 64;   // tile rows: MC*KC*4 B = 32 KiB of packed A
/// Largest row-major A (m * k floats, 1 MiB) a narrow tile reads in place
/// when k > KC; larger ones are packed.  Read in place, an 8192 x 144 A
/// (4.5 MiB) ran 9-24 % slower than packed, while A up to 1024 x 216 ran as
/// fast or faster.
constexpr int64_t kNarrowInPlaceA = int64_t{1} << 18;

#if defined(__GNUC__) || defined(__clang__)
#define SWT_VEC_EXT 1
typedef float vf16 __attribute__((vector_size(64)));
typedef float vf8 __attribute__((vector_size(32)));
typedef float vf4 __attribute__((vector_size(16)));
#endif

/// Unaligned load/store of one lane vector (or of one float: V = float is
/// the one-lane tile that covers the last n % 4 columns).
template <typename V>
inline V load_v(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <typename V>
inline void store_v(float* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Where op(A)'s element (r, kk) lives, relative to a tile's origin.
///  * kRowMajor: a[r * ld + kk] — nn, nt and every packed panel;
///  * kColMajor: a[kk * ld + r] — tn's A read in place;
///  * kIndexed:  a[rows[r] + cols[kk]] — a convolution's patch matrix read
///    through its index tables (PatchTables).  The forward passes rows =
///    base, cols = off; dw += col^T * dy passes them swapped.
enum class AMode { kRowMajor, kColMajor, kIndexed };

struct AOperand {
  AMode mode;
  const float* a;
  int64_t ld = 0;                 // the strided modes
  const int64_t* rows = nullptr;  // kIndexed
  const int64_t* cols = nullptr;

  /// The same operand with its origin moved to (r, kk).
  [[nodiscard]] AOperand at(int64_t r, int64_t kk) const {
    switch (mode) {
      case AMode::kRowMajor: return {mode, a + r * ld + kk, ld};
      case AMode::kColMajor: return {mode, a + kk * ld + r, ld};
      case AMode::kIndexed: break;
    }
    return {mode, a, ld, rows + r, cols + kk};
  }
};

/// MRC x (NV * lanes of V) tile of C at `c` (row stride ldc), accumulated
/// over k in [0, klen): `a` has its origin at the tile's first row of
/// op(A), `b` points at its first column of the B panel (row stride ldb).
/// Each A scalar is broadcast against NV vectors of one B row.  The A mode
/// is a compile-time constant, so each instantiation indexes A with a single
/// runtime stride (or, indexed, one table load per k step shared by the
/// rows, whose table entries are loaded once per tile).
template <typename V, int NV, int MRC, AMode M>
inline void micro(const AOperand& a, const float* __restrict__ b, int64_t ldb,
                  float* __restrict__ c, int64_t ldc, int64_t klen) {
  constexpr int64_t L = sizeof(V) / sizeof(float);
  const float* __restrict__ ap = a.a;
  const int64_t lda = a.ld;
  const float* arow[MRC];
  if constexpr (M == AMode::kIndexed)
    for (int r = 0; r < MRC; ++r) arow[r] = ap + a.rows[r];
  V acc[MRC][NV];
  for (int r = 0; r < MRC; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = load_v<V>(c + r * ldc + v * L);
  for (int64_t kk = 0; kk < klen; ++kk) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load_v<V>(b + kk * ldb + v * L);
    for (int r = 0; r < MRC; ++r) {
      float av;
      if constexpr (M == AMode::kRowMajor)
        av = ap[r * lda + kk];
      else if constexpr (M == AMode::kColMajor)
        av = ap[kk * lda + r];
      else
        av = arow[r][a.cols[kk]];
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < MRC; ++r)
    for (int v = 0; v < NV; ++v) store_v<V>(c + r * ldc + v * L, acc[r][v]);
}

/// Covers columns [j, nlen) of `rows` rows with NV x V micro-tiles while a
/// whole tile fits; returns the first column left over.
template <typename V, int NV, AMode M>
int64_t micro_columns(const AOperand& a, const float* b, int64_t ldb, float* c, int64_t ldc,
                      int64_t rows, int64_t j, int64_t nlen, int64_t klen) {
  constexpr int64_t W = NV * static_cast<int64_t>(sizeof(V) / sizeof(float));
  for (; j + W <= nlen; j += W) {
    switch (rows) {
      case 4: micro<V, NV, 4, M>(a, b + j, ldb, c + j, ldc, klen); break;
      case 3: micro<V, NV, 3, M>(a, b + j, ldb, c + j, ldc, klen); break;
      case 2: micro<V, NV, 2, M>(a, b + j, ldb, c + j, ldc, klen); break;
      default: micro<V, NV, 1, M>(a, b + j, ldb, c + j, ldc, klen); break;
    }
  }
  return j;
}

/// One (mlen x nlen) C tile accumulated over one k panel of klen.  `c`
/// points at the tile origin inside the full C (row stride ldc); `a` has its
/// origin at op(A)'s (tile row 0, panel k 0) and `b` points at the B panel's
/// origin (row stride ldb), packed or in place.  Columns go to the widest
/// tile that fits — 32, 16, 8, then 4 lanes — and the last n % 4 to
/// one-lane tiles.  Kept out of line, so each A mode's tile code is one
/// function that GCC inlines the same way whatever the walk around it looks
/// like.  Inlined into gemm_tiles, its 4- and 8-lane indexed column loops
/// were called once per 4-row group, and NT3's Conv1D forward (k = 3-7
/// taps, 4-8 outputs) ran 20-25 % slower.
template <AMode M>
[[gnu::noinline]] void tile_panel(const AOperand& a, const float* b, int64_t ldb, float* c,
                                  int64_t ldc, int64_t mlen, int64_t nlen, int64_t klen) {
  for (int64_t i = 0; i < mlen; i += MR) {
    const int64_t rows = std::min(MR, mlen - i);
    const AOperand ai = a.at(i, 0);
    float* ci = c + i * ldc;
    int64_t j = 0;
#ifdef SWT_VEC_EXT
    j = micro_columns<vf16, 2, M>(ai, b, ldb, ci, ldc, rows, j, nlen, klen);
    j = micro_columns<vf16, 1, M>(ai, b, ldb, ci, ldc, rows, j, nlen, klen);
    j = micro_columns<vf8, 1, M>(ai, b, ldb, ci, ldc, rows, j, nlen, klen);
    j = micro_columns<vf4, 1, M>(ai, b, ldb, ci, ldc, rows, j, nlen, klen);
#endif
    micro_columns<float, 1, M>(ai, b, ldb, ci, ldc, rows, j, nlen, klen);
  }
}

/// Everything one GEMM call needs.  `b_trans`: B is stored (n, k) with row
/// stride ldb (the nt variant).
struct GemmSpec {
  AOperand a;
  const float* b;
  int64_t ldb;
  bool b_trans;
  float* c;
  int64_t m, n, k;
  bool accumulate;
};

/// Pack buffers: thread-local, sized once, reused across calls, so
/// concurrent callers never share one.  Their *contents* are valid for one
/// packed panel (every panel is packed before it is read), so stale bytes
/// from a previous call can never leak into a result.
struct PackBuffers {
  std::vector<float> a;  // MC x KC
  std::vector<float> b;  // KC x NC
};

PackBuffers& pack_buffers() {
  thread_local PackBuffers bufs;
  if (bufs.a.size() < static_cast<std::size_t>(MC * KC))
    bufs.a.resize(static_cast<std::size_t>(MC * KC));
  if (bufs.b.size() < static_cast<std::size_t>(KC * NC))
    bufs.b.resize(static_cast<std::size_t>(KC * NC));
  return bufs;
}

/// Pack op(A)[i0 : i0+mlen, k0 : k0+klen] row-major into dst (stride klen).
void pack_a(const GemmSpec& s, float* dst, int64_t i0, int64_t mlen, int64_t k0,
            int64_t klen) {
  const AOperand a = s.a.at(i0, k0);
  switch (a.mode) {
    case AMode::kRowMajor:
      for (int64_t r = 0; r < mlen; ++r)
        std::copy(a.a + r * a.ld, a.a + r * a.ld + klen, dst + r * klen);
      break;
    case AMode::kColMajor:
      // A stored (k, m): read rows of A (contiguous), scatter into columns.
      for (int64_t kk = 0; kk < klen; ++kk)
        for (int64_t r = 0; r < mlen; ++r) dst[r * klen + kk] = a.a[kk * a.ld + r];
      break;
    case AMode::kIndexed:
      for (int64_t r = 0; r < mlen; ++r) {
        const float* row = a.a + a.rows[r];
        for (int64_t kk = 0; kk < klen; ++kk) dst[r * klen + kk] = row[a.cols[kk]];
      }
      break;
  }
}

/// Pack op(B)[k0 : k0+klen, j0 : j0+nlen] row-major into dst (stride nlen).
void pack_b(const GemmSpec& s, float* dst, int64_t k0, int64_t klen, int64_t j0,
            int64_t nlen) {
  if (!s.b_trans) {
    for (int64_t kk = 0; kk < klen; ++kk) {
      const float* src = s.b + (k0 + kk) * s.ldb + j0;
      std::copy(src, src + nlen, dst + kk * nlen);
    }
  } else {
    // B stored (n, k): read rows of B (contiguous), scatter into columns —
    // this is what turns nt's per-k strided gather into packed vector loads.
    for (int64_t j = 0; j < nlen; ++j) {
      const float* src = s.b + (j0 + j) * s.ldb + k0;
      for (int64_t kk = 0; kk < klen; ++kk) dst[kk * nlen + j] = src[kk];
    }
  }
}

/// Walks C one NC-wide column panel at a time; within a panel, k one KC
/// panel at a time, packing B(kc, jc) once for every MC-tall row tile.
/// Each C element belongs to exactly one tile and the k panels run
/// ascending — one accumulation chain per element.
///
/// A panel is read in place instead of packed when packing buys nothing,
/// decided from the shape alone:
///  * B when it is not transposed and n <= NC — the source rows already are
///    the packed panel (row stride n == nlen) — and either n <= 2 * NR or
///    m <= MC.  With one row tile a pack is a pure extra copy, and a narrow
///    B is small and contiguous; a wide B shared by several row tiles gets
///    its private packed copy (in place, 128^3 nn/tn in bench_gemm ran
///    10-15 % slower although the strides are the same).
///  * A when it is not transposed and k <= KC: likewise (row stride k ==
///    klen).
///  * A for narrow tiles (nlen <= 2 * NR): a packed A panel would serve at
///    most two micro-tile columns, so the copy costs about as much as the
///    reads it would speed up.  tn then reads A(k, m) column-wise, which
///    drops the transposing pack from Dense's dw += x^T * dy, and a
///    convolution reads its indexed patch matrix straight from the padded
///    input.  A row-major A with k > KC qualifies only up to
///    kNarrowInPlaceA floats.  Wider tiles pack A, gathering an indexed one
///    through its tables.
void gemm_tiles(const GemmSpec& s) {
  if (s.k <= 0) {
    // Nothing to reduce: the contract is still "overwrite with zeros"
    // unless accumulating (matching the naive fill + empty loop).
    if (!s.accumulate) std::fill(s.c, s.c + s.m * s.n, 0.0f);
    return;
  }
  PackBuffers& bufs = pack_buffers();
  const bool b_in_place = !s.b_trans && s.n <= NC && (s.n <= 2 * NR || s.m <= MC);
  for (int64_t j0 = 0; j0 < s.n; j0 += NC) {
    const int64_t nlen = std::min(NC, s.n - j0);
    const bool narrow = nlen <= 2 * NR;
    const bool a_in_place = s.a.mode != AMode::kRowMajor
                                ? narrow
                                : s.k <= KC || (narrow && s.m * s.k <= kNarrowInPlaceA);
    for (int64_t kc = 0; kc < s.k; kc += KC) {
      const int64_t klen = std::min(KC, s.k - kc);
      const float* bp = s.b + kc * s.ldb + j0;
      int64_t ldb = s.ldb;
      if (!b_in_place) {
        pack_b(s, bufs.b.data(), kc, klen, j0, nlen);
        bp = bufs.b.data();
        ldb = nlen;
      }
      for (int64_t i0 = 0; i0 < s.m; i0 += MC) {
        const int64_t mlen = std::min(MC, s.m - i0);
        float* ctile = s.c + i0 * s.n + j0;
        if (kc == 0 && !s.accumulate) {
          for (int64_t r = 0; r < mlen; ++r)
            std::fill(ctile + r * s.n, ctile + r * s.n + nlen, 0.0f);
        }
        if (!a_in_place) {
          pack_a(s, bufs.a.data(), i0, mlen, kc, klen);
          tile_panel<AMode::kRowMajor>({AMode::kRowMajor, bufs.a.data(), klen}, bp, ldb,
                                       ctile, s.n, mlen, nlen, klen);
          continue;
        }
        const AOperand a = s.a.at(i0, kc);
        switch (a.mode) {
          case AMode::kRowMajor:
            tile_panel<AMode::kRowMajor>(a, bp, ldb, ctile, s.n, mlen, nlen, klen);
            break;
          case AMode::kColMajor:
            tile_panel<AMode::kColMajor>(a, bp, ldb, ctile, s.n, mlen, nlen, klen);
            break;
          case AMode::kIndexed:
            tile_panel<AMode::kIndexed>(a, bp, ldb, ctile, s.n, mlen, nlen, klen);
            break;
        }
      }
    }
  }
}

/// Every GEMM, the two inside a convolution's forward and dw included, is
/// timed as one matmul.
void gemm(const GemmSpec& s) {
  if (s.m <= 0 || s.n <= 0) return;
  timed(2 * s.m * s.n * s.k, record_matmul, prof::Phase::kGemm, [&] { gemm_tiles(s); });
}

// ---------------------------------------------------------------------------
// Convolution helpers
// ---------------------------------------------------------------------------

/// Thread-local scratch, reused across calls instead of allocated per
/// forward/backward: slot 0 holds the padded input, slot 1 the dx path's
/// dcol.
std::vector<float>& scratch(std::size_t slot, std::size_t size) {
  thread_local std::vector<float> buffers[2];
  std::vector<float>& buf = buffers[slot];
  if (buf.size() < size) buf.resize(size);
  return buf;
}

/// Taps [lo, hi) of one kernel axis (k taps, tap 0 at input coordinate x0)
/// that land inside an input axis of `extent`; lo == hi when none do.
struct TapRange {
  int64_t lo, hi;
};
inline TapRange in_image_taps(int64_t x0, int64_t k, int64_t extent) {
  const int64_t lo = std::clamp<int64_t>(-x0, 0, k);
  return {lo, std::clamp<int64_t>(extent - x0, lo, k)};
}

/// Scatter-add dcol back into dx, one run per in-image kernel row
/// (channels-last storage makes the in-image taps of a kernel row one
/// contiguous run of the input row).  Each dx element receives at most one
/// term per patch, in ascending patch order — the naive backward loop's
/// order.
void col2im_add_images(const float* __restrict__ dcol, float* __restrict__ dx,
                       const ConvGeom& g) {
  const int64_t r_cols = g.patch_cols();
  const int64_t run = g.kw * g.cin;
  for (int64_t ni = 0; ni < g.n; ++ni) {
    for (int64_t yo = 0; yo < g.oh; ++yo) {
      const int64_t y0 = yo * g.stride - g.pad_h;
      const TapRange kh = in_image_taps(y0, g.kh, g.h);
      for (int64_t xo = 0; xo < g.ow; ++xo) {
        const int64_t x0 = xo * g.stride - g.pad_w;
        const TapRange kw = in_image_taps(x0, g.kw, g.w);
        const int64_t body = (kw.hi - kw.lo) * g.cin;
        const float* row = dcol + ((ni * g.oh + yo) * g.ow + xo) * r_cols;
        for (int64_t r = kh.lo; r < kh.hi; ++r) {
          const float* src = row + r * run + kw.lo * g.cin;
          float* dst = dx + ((ni * g.h + y0 + r) * g.w + x0 + kw.lo) * g.cin;
          for (int64_t j = 0; j < body; ++j) dst[j] += src[j];
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  gemm({{AMode::kRowMajor, a, k}, b, n, false, c, m, n, k, accumulate});
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  gemm({{AMode::kColMajor, a, m}, b, n, false, c, m, n, k, accumulate});
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  gemm({{AMode::kRowMajor, a, k}, b, k, true, c, m, n, k, accumulate});
}

ConvGeom conv1d_geom(int64_t n, int64_t len, int64_t cin, int64_t k, int64_t cout,
                     int64_t olen, int64_t stride, int64_t pad) noexcept {
  ConvGeom g;
  g.n = n;
  g.h = 1;
  g.w = len;
  g.cin = cin;
  g.kh = 1;
  g.kw = k;
  g.cout = cout;
  g.oh = 1;
  g.ow = olen;
  g.stride = stride;
  g.pad_h = 0;
  g.pad_w = pad;
  return g;
}

PatchTables patch_tables(const float* x, const ConvGeom& g) {
  // Rows and columns the taps reach, and never fewer than the input needs:
  // trailing padding can exceed the leading one ("same" at stride 2 on an
  // even input), and a strided "valid" conv can leave input rows unread.
  const int64_t hp = std::max((g.oh - 1) * g.stride + g.kh, g.h + g.pad_h);
  const int64_t wp = std::max((g.ow - 1) * g.stride + g.kw, g.w + g.pad_w);
  const float* xpad = x;
  if (hp != g.h || wp != g.w) {
    const auto size = static_cast<std::size_t>(g.n * hp * wp * g.cin);
    float* buf = scratch(0, size).data();
    std::fill(buf, buf + size, 0.0f);
    const int64_t row = g.w * g.cin;
    for (int64_t ni = 0; ni < g.n; ++ni)
      for (int64_t yi = 0; yi < g.h; ++yi)
        std::copy_n(x + (ni * g.h + yi) * row, row,
                    buf + ((ni * hp + yi + g.pad_h) * wp + g.pad_w) * g.cin);
    xpad = buf;
  }
  thread_local std::vector<int64_t> tables;
  const int64_t rows = g.patch_rows();
  const auto entries = static_cast<std::size_t>(rows + g.patch_cols());
  if (tables.size() < entries) tables.resize(entries);
  int64_t* base = tables.data();
  int64_t* off = base + rows;
  for (int64_t ni = 0; ni < g.n; ++ni)
    for (int64_t yo = 0; yo < g.oh; ++yo)
      for (int64_t xo = 0; xo < g.ow; ++xo)
        *base++ = ((ni * hp + yo * g.stride) * wp + xo * g.stride) * g.cin;
  for (int64_t kh = 0; kh < g.kh; ++kh)
    for (int64_t kw = 0; kw < g.kw; ++kw)
      for (int64_t ic = 0; ic < g.cin; ++ic) *off++ = (kh * wp + kw) * g.cin + ic;
  return {xpad, tables.data(), tables.data() + rows};
}

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g) {
  const int64_t rows = g.patch_rows();
  if (rows <= 0 || g.cout <= 0) return;
  timed(g.flops(), record_conv, prof::Phase::kConv, [&] {
    const PatchTables col = patch_tables(x, g);
    // Bias heads each output element's accumulation chain, exactly like the
    // naive direct loop's `out[oc] = b[oc]` initialisation.
    for (int64_t p = 0; p < rows; ++p) {
      float* yrow = y + p * g.cout;
      if (bias != nullptr)
        std::copy(bias, bias + g.cout, yrow);
      else
        std::fill(yrow, yrow + g.cout, 0.0f);
    }
    // y += col * w, col(p, t) = xpad[base[p] + off[t]].
    gemm({{AMode::kIndexed, col.xpad, 0, col.base, col.off}, w, g.cout, false, y, rows,
          g.cout, g.patch_cols(), /*accumulate=*/true});
  });
}

void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g) {
  const int64_t rows = g.patch_rows();
  if (rows <= 0 || g.cout <= 0) return;
  // dw costs one forward's FLOPs, dx (when requested) another; db is O(rows).
  const int64_t flops = dx != nullptr ? 2 * g.flops() : g.flops();
  timed(flops, record_conv, prof::Phase::kConv, [&] {
    const int64_t r_cols = g.patch_cols();
    // db: patch-ascending, matching the naive (ni, yo, xo) loop order.
    if (db != nullptr) {
      for (int64_t p = 0; p < rows; ++p) {
        const float* dyrow = dy + p * g.cout;
        for (int64_t oc = 0; oc < g.cout; ++oc) db[oc] += dyrow[oc];
      }
    }
    // dw += col^T * dy — each kernel entry sums over patches ascending.
    // op(A)(t, p) = col(p, t) = xpad[off[t] + base[p]]: the tables swapped.
    const PatchTables col = patch_tables(x, g);
    gemm({{AMode::kIndexed, col.xpad, 0, col.off, col.base}, dy, g.cout, false, dw, r_cols,
          g.cout, rows, /*accumulate=*/true});
    if (dx == nullptr) return;
    // dcol = dy * w^T, then scattered back into dx.
    std::vector<float>& dcol = scratch(1, static_cast<std::size_t>(rows * r_cols));
    gemm_nt(dy, w, dcol.data(), rows, r_cols, g.cout, /*accumulate=*/false);
    col2im_add_images(dcol.data(), dx, g);
  });
}

// ---------------------------------------------------------------------------
// Adam update
// ---------------------------------------------------------------------------
// Elementwise: a lane of any width runs one element's whole sequence, so the
// vector loop is bit-identical to the scalar one.  GCC vectorizes it (packed
// double sqrt and div) only because this TU is built -fno-math-errno: the
// flag drops std::sqrt's errno write on negative input, and the square root
// itself stays the same correctly rounded IEEE operation.  The weight-decay
// test is hoisted out of the loop and the arrays are declared disjoint, so
// an 8-element bias takes the vector loop too, with no alias check.

namespace {

template <bool kDecay>
void adam_lanes(float* __restrict__ w, const float* __restrict__ g, float* __restrict__ m,
                float* __restrict__ v, int64_t n, const AdamStep& step) {
  const float b1 = step.beta1;
  const float b2 = step.beta2;
  const float wd = step.weight_decay;
  const double alpha = step.alpha;
  const double eps = step.epsilon;
  for (int64_t i = 0; i < n; ++i) {
    float grad = g[i];
    if constexpr (kDecay) grad += wd * w[i];
    m[i] = b1 * m[i] + (1.0f - b1) * grad;
    v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
    w[i] -= static_cast<float>(alpha * m[i] / (std::sqrt(static_cast<double>(v[i])) + eps));
  }
}

}  // namespace

void adam_update(float* w, const float* g, float* m, float* v, int64_t n,
                 const AdamStep& step) {
  if (step.weight_decay > 0.0f)
    adam_lanes<true>(w, g, m, v, n, step);
  else
    adam_lanes<false>(w, g, m, v, n, step);
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

namespace naive {

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  // ikj loop order: streams through B and C rows, cache-friendly row-major.
  // No `a == 0` skip: FLOPs stay shape-determined and 0 * NaN propagates.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = c[i * n + j];
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[i * n + j] = acc;
    }
  }
}

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g) {
  for (int64_t ni = 0; ni < g.n; ++ni) {
    for (int64_t yo = 0; yo < g.oh; ++yo) {
      for (int64_t xo = 0; xo < g.ow; ++xo) {
        float* out = y + ((ni * g.oh + yo) * g.ow + xo) * g.cout;
        for (int64_t oc = 0; oc < g.cout; ++oc) out[oc] = bias != nullptr ? bias[oc] : 0.0f;
        for (int64_t kh = 0; kh < g.kh; ++kh) {
          const int64_t yi = yo * g.stride + kh - g.pad_h;
          if (yi < 0 || yi >= g.h) continue;
          for (int64_t kw = 0; kw < g.kw; ++kw) {
            const int64_t xi = xo * g.stride + kw - g.pad_w;
            if (xi < 0 || xi >= g.w) continue;
            const float* in = x + ((ni * g.h + yi) * g.w + xi) * g.cin;
            const float* ker = w + (kh * g.kw + kw) * g.cin * g.cout;
            for (int64_t ic = 0; ic < g.cin; ++ic) {
              const float xv = in[ic];
              const float* krow = ker + ic * g.cout;
              for (int64_t oc = 0; oc < g.cout; ++oc) out[oc] += xv * krow[oc];
            }
          }
        }
      }
    }
  }
}

void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g) {
  for (int64_t ni = 0; ni < g.n; ++ni) {
    for (int64_t yo = 0; yo < g.oh; ++yo) {
      for (int64_t xo = 0; xo < g.ow; ++xo) {
        const float* dout = dy + ((ni * g.oh + yo) * g.ow + xo) * g.cout;
        if (db != nullptr)
          for (int64_t oc = 0; oc < g.cout; ++oc) db[oc] += dout[oc];
        for (int64_t kh = 0; kh < g.kh; ++kh) {
          const int64_t yi = yo * g.stride + kh - g.pad_h;
          if (yi < 0 || yi >= g.h) continue;
          for (int64_t kw = 0; kw < g.kw; ++kw) {
            const int64_t xi = xo * g.stride + kw - g.pad_w;
            if (xi < 0 || xi >= g.w) continue;
            const float* in = x + ((ni * g.h + yi) * g.w + xi) * g.cin;
            float* din = dx + ((ni * g.h + yi) * g.w + xi) * g.cin;
            for (int64_t ic = 0; ic < g.cin; ++ic) {
              const float xv = in[ic];
              float* dker = dw + ((kh * g.kw + kw) * g.cin + ic) * g.cout;
              const float* ker = w + ((kh * g.kw + kw) * g.cin + ic) * g.cout;
              float acc = 0.0f;
              for (int64_t oc = 0; oc < g.cout; ++oc) {
                dker[oc] += xv * dout[oc];
                acc += ker[oc] * dout[oc];
              }
              din[ic] += acc;
            }
          }
        }
      }
    }
  }
}

// The attribute keeps the reference scalar (one sqrtsd and one divsd per
// element) under this TU's -fno-math-errno, so bench_gemm's naive column
// times the scalar loop rather than a second copy of the kernel.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void adam_update(float* w, const float* g, float* m, float* v, int64_t n,
                 const AdamStep& step) {
  const float b1 = step.beta1;
  const float b2 = step.beta2;
  const float wd = step.weight_decay;
  for (int64_t i = 0; i < n; ++i) {
    float grad = g[i];
    if (wd > 0.0f) grad += wd * w[i];  // L2 regulariser contribution
    m[i] = b1 * m[i] + (1.0f - b1) * grad;
    v[i] = b2 * v[i] + (1.0f - b2) * grad * grad;
    w[i] -= static_cast<float>(step.alpha * m[i] /
                               (std::sqrt(static_cast<double>(v[i])) + step.epsilon));
  }
}

}  // namespace naive

}  // namespace swt::kernels
