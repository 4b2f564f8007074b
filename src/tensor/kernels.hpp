// Cache-blocked compute kernels: GEMM (nn/tn/nt) and convolution through
// patch index tables, the hot path under every candidate evaluation.
//
// Design contract (see DESIGN.md "Compute kernels"):
//
// * **Fixed reduction order.**  Every output element is produced by a single
//   floating-point accumulation chain over the reduction index in ascending
//   order, regardless of blocking factors.  Blocking only reorders *which
//   element* is computed when, never the term order *within* an element, so
//   the blocked kernels are bit-identical to the `naive::` references — the
//   property the registry/compare_runs CI gate and the trace byte-identity
//   gates depend on.
// * **One thread per kernel.**  Every kernel runs on the thread that calls
//   it.  The search's parallelism is one level up: several candidate
//   evaluations train at once on the eval pool (`--eval-parallelism`), and
//   concurrent callers share nothing, since pack buffers, patch tables and
//   scratch are all thread-local.
// * **Packed panels, where packing pays.**  The A and B panels a tile
//   consumes are packed into the calling thread's buffers (reused across
//   calls), so the nt variant's strided B^T gather becomes a contiguous
//   packed read.  Where a pack would only copy — an A or B already in the
//   packed layout (B only when narrow or used by a single row tile), or A
//   for tiles at most two micro-tiles wide — the panel is read in place
//   instead, a pure function of the shape.  Packing copies values; it never
//   reorders an accumulation chain.
// * **Narrow outputs run vectorized.**  Micro-tiles are 32, 16, 8 and 4
//   lanes wide, so the 4-24-channel layers the search trains run at vector
//   width; only the last n % 4 columns take one-lane tiles.
// * **Convolution builds no patch matrix.**  The forward and dw GEMMs read
//   it through two index tables into a zero-padded copy of the input
//   (`PatchTables`); the taps keep their (kh, kw, cin) order, so each chain
//   is the one the naive direct loop runs.
// * **No data-dependent fast paths.**  The old `if (a == 0.0f) continue;`
//   shortcut made FLOP counts and timings depend on the weight values and
//   silently swallowed signalling NaNs (0 * NaN must propagate).  Neither
//   the blocked kernels nor the retained references skip zero terms.
//
// The kernels feed `tensor.matmul_seconds` / `tensor.conv_seconds` gauges
// (plus call/FLOP counters) into the process MetricsRegistry when metrics
// are enabled, and the calling thread's resource counters into the
// `prof.gemm.*` / `prof.conv.*` phase attribution (achieved GF/s, IPC).
#pragma once

#include <cstdint>

namespace swt::kernels {

// bench/e2e/bench_e2e.cpp still names these two, and only it may: it
// emplaces the guard for its parallel workloads and prints the count in its
// report header.  Both do nothing, and both go with the next change to
// bench/e2e.
struct ScopedSerialKernels {};
[[nodiscard]] constexpr int compute_threads() noexcept { return 1; }

// ---------------------------------------------------------------------------
// GEMM — row-major float32, C is (m x n)
// ---------------------------------------------------------------------------
// `accumulate == false` overwrites C, `true` adds into it (the existing C
// value heads each element's accumulation chain, so a bias-filled C gives
// `bias + sum_k ...` in naive order).

/// C (+)= A(m,k) * B(k,n).
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);
/// C (+)= A^T * B where A is stored (k,m) and B is (k,n).
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);
/// C (+)= A * B^T where A is (m,k) and B is stored (n,k).
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);

// ---------------------------------------------------------------------------
// Convolution — channels-last, zero padding, GEMM through patch index tables
// ---------------------------------------------------------------------------

/// Geometry of one convolution call.  2-D: input (n, h, w, cin), kernel
/// (kh, kw, cin, cout), output (n, oh, ow, cout).  1-D maps onto the same
/// kernel with h = kh = oh = 1 and the length on the w axis (use
/// `conv1d_geom`).  `stride` applies to both spatial axes; `pad_h`/`pad_w`
/// are the leading zero-padding per axis (input coordinate =
/// out * stride + tap - pad).
struct ConvGeom {
  std::int64_t n = 0, h = 1, w = 0, cin = 0;
  std::int64_t kh = 1, kw = 0, cout = 0;
  std::int64_t oh = 1, ow = 0;
  std::int64_t stride = 1;
  std::int64_t pad_h = 0, pad_w = 0;

  /// Rows / columns of the patch matrix (see PatchTables).
  [[nodiscard]] std::int64_t patch_rows() const noexcept { return n * oh * ow; }
  [[nodiscard]] std::int64_t patch_cols() const noexcept { return kh * kw * cin; }
  /// Useful FLOPs of the forward GEMM (2 * patches * taps * cout).
  [[nodiscard]] std::int64_t flops() const noexcept {
    return 2 * patch_rows() * patch_cols() * cout;
  }
};

/// Geometry for a 1-D convolution: input (n, len, cin), kernel (k, cin,
/// cout), output (n, olen, cout).
[[nodiscard]] ConvGeom conv1d_geom(std::int64_t n, std::int64_t len, std::int64_t cin,
                                   std::int64_t k, std::int64_t cout, std::int64_t olen,
                                   std::int64_t stride, std::int64_t pad) noexcept;

/// y = conv(x, w) + bias.  `bias` (length cout) may be null for no bias.
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g);

/// Gradients of the same convolution: `dw` (kernel-shaped) and `db` (length
/// cout) are *accumulated into*; `dx` (input-shaped) must be zero-filled by
/// the caller and is accumulated into as well (matching Layer::backward
/// semantics, where grads add up until zero_grads()).  `db` may be null.
/// `dx` may be null when the input gradient is not needed (a network's
/// first layer): the dy * w^T GEMM and the col2im scatter are then skipped,
/// and dw/db are bit-identical to a call with dx.  Charged to the conv
/// metrics as flops() for dw plus flops() when dx is computed.
void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g);

/// The patch matrix the forward GEMM and the dw GEMM read, never built:
/// col(p, t) = xpad[base[p] + off[t]] for patch row p = ((ni*oh + yo)*ow + xo)
/// and tap column t = ((kh'*kw + kw')*cin + ic).  `xpad` is the input with
/// zero padding around it, covering (oh-1)*stride + kh rows and
/// (ow-1)*stride + kw columns and never less than the input plus its
/// leading padding; it is `x` itself when no tap leaves the image.
/// `base[p]` (patch_rows() entries) is the offset of patch p's tap (0, 0),
/// `off[t]` (patch_cols() entries) the offset of tap t from it, so a padded
/// tap reads +0.0f.  The tables (and a padded copy) live in the calling
/// thread's scratch and stay valid until its next convolution call.
/// Exposed for tests.
struct PatchTables {
  const float* xpad;
  const std::int64_t* base;
  const std::int64_t* off;
};
[[nodiscard]] PatchTables patch_tables(const float* x, const ConvGeom& g);

// ---------------------------------------------------------------------------
// Optimizer update — elementwise Adam
// ---------------------------------------------------------------------------

/// The scalars one Adam step applies to a parameter tensor.
struct AdamStep {
  double alpha = 0.0;  ///< lr * sqrt(1 - beta2^t) / (1 - beta1^t)
  double epsilon = 0.0;
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float weight_decay = 0.0f;  ///< L2 coefficient, added to the gradient when > 0
};

/// One Adam update of n elements: with grad = g (+ weight_decay * w),
/// m = b1*m + (1-b1)*grad and v = b2*v + (1-b2)*grad*grad in float, then
/// w -= float(alpha*m / (sqrt(double(v)) + epsilon)) with the quotient in
/// double, bit-identical to naive::adam_update.  The m and v updates run
/// that float sequence in every lane.  Builds with FMA form the quotient
/// as a float pair in 16 (AVX-512F) or 8 lanes and keep a lane's float
/// only where a per-lane guard proves it is the double quotient's
/// rounding; other lanes, the last n % 8 elements, calls whose alpha or
/// epsilon lie outside the proof's bounds (alpha = 0 among them) and every
/// element of a build without FMA run the double expression (DESIGN.md
/// section 7).  The four arrays must not overlap.
void adam_update(float* w, const float* g, float* m, float* v, std::int64_t n,
                 const AdamStep& step);

// ---------------------------------------------------------------------------
// Activation — elementwise tanh
// ---------------------------------------------------------------------------

/// y[i] = tanh(x[i]) for n elements, by fdlibm's s_tanhf.c and s_expm1f.c
/// (the algorithm glibc's tanhf runs), with one element per vector lane:
/// each lane computes every branch tanh's arguments reach and selects its
/// own result, so the output is bit-identical to naive::tanh at any lane
/// width.  `x` and `y` may be the same array.
void tanh(const float* x, float* y, std::int64_t n);

// ---------------------------------------------------------------------------
// Reference kernels — the seed repo's loops, retained verbatim (minus the
// data-dependent zero-skip) as the differential-test oracle.  Serial.
// ---------------------------------------------------------------------------
namespace naive {

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate = false);

/// Direct convolution loops, same accumulation order as the blocked path,
/// so results match bit-for-bit.
void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvGeom& g);
void conv_backward(const float* x, const float* w, const float* dy, float* dx,
                   float* dw, float* db, const ConvGeom& g);

/// The scalar Adam loop: one square root and one division per element.
void adam_update(float* w, const float* g, float* m, float* v, std::int64_t n,
                 const AdamStep& step);

/// fdlibm's tanhf transcribed line by line, one branch per element.
void tanh(const float* x, float* y, std::int64_t n);

}  // namespace naive

}  // namespace swt::kernels
