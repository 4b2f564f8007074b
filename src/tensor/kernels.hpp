// Cache-blocked compute kernels, threaded above a FLOP cut: GEMM (nn/tn/nt)
// and convolution through patch index tables, the hot path under every
// candidate evaluation.
//
// Design contract (see DESIGN.md "Compute kernels"):
//
// * **Fixed reduction order.**  Every output element is produced by a single
//   floating-point accumulation chain over the reduction index in ascending
//   order, regardless of blocking factors or thread count.  Blocking only
//   reorders *which element* is computed when, never the term order *within*
//   an element.  The parallel driver partitions the output into a 2-D grid
//   of (MC-row x NC-column) tiles and assigns each tile to exactly one
//   worker (owner-computes, `swt::parallel_tiles`); an element's whole chain
//   runs on its tile's owner, so the blocked kernels are bit-identical to
//   the `naive::` references and to themselves at any `SWT_THREADS` — the
//   property the registry/compare_runs CI gate and the trace
//   bit-reproducibility test depend on.
// * **Per-worker packed panels, where packing pays.**  Each worker packs
//   the A and B panels a tile consumes into thread-local buffers (reused
//   across calls, never shared), so threads do not contend on pack writes
//   and the nt variant's strided B^T gather becomes a contiguous packed
//   read.  Where a pack would only copy — an A or B already in the packed
//   layout (B only when narrow or used by a single row tile), or A for
//   tiles at most two micro-tiles wide — the panel is read in place
//   instead, a pure function of the shape.  Packing copies values; it
//   never reorders an accumulation chain.
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
// * **Serial below a flops threshold.**  Waking the shared pool costs tens
//   of microseconds, more than splitting a search-sized kernel saves;
//   kernels smaller than `kParallelFlopThreshold` run on the calling thread,
//   which covers every kernel a training batch of the four apps issues.
//
// The kernels feed `tensor.matmul_seconds` / `tensor.conv_seconds` gauges
// (plus call/FLOP counters) into the process MetricsRegistry when metrics
// are enabled, and aggregate per-worker resource counters into the
// `prof.gemm.*` / `prof.conv.*` phase attribution so achieved GFLOP/s and
// IPC stay correct when the work spans several pool threads.
#pragma once

#include <cstdint>
#include <string>

namespace swt::kernels {

// ---------------------------------------------------------------------------
// Threading knob
// ---------------------------------------------------------------------------

/// Upper bound on the compute-thread knob; values above it clamp (with a
/// logged warning) rather than silently wrapping or exploding the dispatch.
inline constexpr int kMaxComputeThreads = 1024;

/// Number of tile owners the parallel driver splits a large kernel across.
/// Defaults to the `SWT_THREADS` environment variable when set (validated by
/// `parse_thread_count`, garbage falls back to the hardware default with a
/// logged warning), otherwise to std::thread::hardware_concurrency().
/// `n <= 0` resets to the hardware default; `n > kMaxComputeThreads` clamps
/// with a logged warning.  Tile ranges execute on the shared
/// `ThreadPool::global()`; results are bit-identical for every value.
void set_compute_threads(int n) noexcept;
[[nodiscard]] int compute_threads() noexcept;

/// Strict parser for the `SWT_THREADS` override format: a base-10 integer
/// with optional surrounding whitespace.  Returns the parsed value clamped
/// to [1, kMaxComputeThreads]; empty/non-numeric/trailing-junk input and
/// values below 1 return `fallback` instead.  When `reason` is non-null it
/// is cleared, then set to a human-readable explanation whenever the input
/// was not accepted verbatim — the caller decides whether to log it.
[[nodiscard]] int parse_thread_count(const char* text, int fallback,
                                     std::string* reason = nullptr);

/// RAII guard: while alive, kernels invoked from the *current thread* run
/// serially instead of dispatching row chunks to the shared pool.  Used by
/// callers that are themselves one of several concurrent compute tasks —
/// e.g. parallel candidate evaluations — where (a) the cores are
/// already saturated by task-level parallelism and (b) nested pool dispatch
/// from inside pool-blocked threads could starve the queue.  Results are
/// bit-identical either way (fixed-reduction-order contract above).  Nests
/// safely; per-thread, so guards on one thread do not affect another.
class ScopedSerialKernels {
 public:
  ScopedSerialKernels() noexcept;
  ~ScopedSerialKernels();
  ScopedSerialKernels(const ScopedSerialKernels&) = delete;
  ScopedSerialKernels& operator=(const ScopedSerialKernels&) = delete;

 private:
  bool prev_;
};

/// Kernels whose useful-FLOP count is below this run serially on the
/// calling thread.  An empty 4-part dispatch of a pool that has gone idle
/// takes 18-50 us at the median and up to milliseconds at p99 (bench_gemm's
/// wake-cost row), against 10-400 us for a whole conv the search trains;
/// split across the pool, such kernels took more wall time than CPU time.
/// The largest kernel a training batch of the four apps issues, CIFAR's
/// 24->24 conv at batch 16, is 10.6 MFLOP, so 2^25 keeps them all on the
/// caller.  A validation pass runs the whole validation set as one batch:
/// CIFAR's 96 images through a wide conv at 6x6-8x8 (35.8-63.7 MFLOP) still
/// split, and run 1.7-2.5x faster for it even from a sleeping pool.
inline constexpr std::int64_t kParallelFlopThreshold = std::int64_t{1} << 25;

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
// Optimizer update — elementwise Adam, serial on the calling thread
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
/// double.  Every element runs that sequence in that order at any vector
/// width, so the result is bit-identical to naive::adam_update.  The four
/// arrays must not overlap.
void adam_update(float* w, const float* g, float* m, float* v, std::int64_t n,
                 const AdamStep& step);

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

}  // namespace naive

}  // namespace swt::kernels
