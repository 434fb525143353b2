#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define NOODLE_GEMM_X86 1
#include <immintrin.h>
#else
#define NOODLE_GEMM_X86 0
#endif

namespace noodle::nn {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernel (PR 4). This is the bit-identity anchor: every
// other implementation must reproduce it exactly. Register-block shape: 2×4 gives 8 independent
// accumulators fed by 6 loads per k step — enough instruction-level
// parallelism to hide the floating-point add latency that serializes a
// single dot product, while staying inside the 16 SSE2 registers of the
// baseline x86-64 target. Every accumulator adds in strict k order.
// ---------------------------------------------------------------------------

constexpr std::size_t kMr = 2;
constexpr std::size_t kNr = 4;

/// Full 2×4 tile: C[i0..i0+1, j0..j0+3].
inline void micro_2x4(std::size_t k, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, const double* bias,
                      double* c, std::size_t c_row_stride, std::size_t c_col_stride,
                      std::size_t i0, std::size_t j0) {
  const double* a0 = a + i0 * lda;
  const double* a1 = a0 + lda;
  const double* b0 = b + j0 * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;

  double acc00 = bias ? bias[j0 + 0] : 0.0, acc01 = bias ? bias[j0 + 1] : 0.0;
  double acc02 = bias ? bias[j0 + 2] : 0.0, acc03 = bias ? bias[j0 + 3] : 0.0;
  double acc10 = acc00, acc11 = acc01, acc12 = acc02, acc13 = acc03;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double a0v = a0[kk];
    const double a1v = a1[kk];
    const double b0v = b0[kk], b1v = b1[kk], b2v = b2[kk], b3v = b3[kk];
    acc00 += a0v * b0v;
    acc01 += a0v * b1v;
    acc02 += a0v * b2v;
    acc03 += a0v * b3v;
    acc10 += a1v * b0v;
    acc11 += a1v * b1v;
    acc12 += a1v * b2v;
    acc13 += a1v * b3v;
  }
  double* c0 = c + i0 * c_row_stride + j0 * c_col_stride;
  double* c1 = c0 + c_row_stride;
  c0[0] = acc00;
  c0[c_col_stride] = acc01;
  c0[2 * c_col_stride] = acc02;
  c0[3 * c_col_stride] = acc03;
  c1[0] = acc10;
  c1[c_col_stride] = acc11;
  c1[2 * c_col_stride] = acc12;
  c1[3 * c_col_stride] = acc13;
}

/// Partial tile at the m/n edges: plain dot products, same accumulation
/// order as the blocked path (bias first, then k ascending). Also the
/// column-remainder path of the SIMD kernels.
inline void edge_tile(std::size_t k, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, const double* bias,
                      double* c, std::size_t c_row_stride, std::size_t c_col_stride,
                      std::size_t i0, std::size_t ib, std::size_t j0, std::size_t jb) {
  for (std::size_t i = 0; i < ib; ++i) {
    const double* a_row = a + (i0 + i) * lda;
    for (std::size_t j = 0; j < jb; ++j) {
      const double* b_row = b + (j0 + j) * ldb;
      double acc = bias ? bias[j0 + j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      c[(i0 + i) * c_row_stride + (j0 + j) * c_col_stride] = acc;
    }
  }
}

void gemm_bt_scalar(std::size_t m, std::size_t n, std::size_t k, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    const double* bias, double* c, std::size_t c_row_stride,
                    std::size_t c_col_stride) {
  for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
    const std::size_t ib = std::min(kMr, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t jb = std::min(kNr, n - j0);
      if (ib == kMr && jb == kNr) {
        micro_2x4(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, i0, j0);
      } else {
        edge_tile(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, i0, ib, j0,
                  jb);
      }
    }
  }
}

#if NOODLE_GEMM_X86

// ---------------------------------------------------------------------------
// Paneled SIMD driver. The SIMD kernels vectorize across NR independent
// output COLUMNS (never along k), so each C element still accumulates
// bias-first then k-ascending with every product rounded before the add —
// the exact op sequence of the scalar reference, just NR elements per
// instruction. To make the column direction contiguous, each NR-wide column
// panel of B is first transposed into `panel` (panel[kk*NR + jj] =
// B[j0+jj][k0+kk]); the pack cost is amortized over all m rows. k is
// processed in KC-sized chunks so the pack buffer lives on the stack: the
// accumulators round-trip through C between chunks, which is exact (a
// double stored and reloaded is unchanged), preserving bit-identity for
// any k.
//
// Tile functions receive a pre-offset view: `a` points at A[i0][k0],
// `bias` at bias[j0] (or null), `c` at C[i0][j0]. `first` seeds the
// accumulators from the bias; later chunks reload them from C.
// ---------------------------------------------------------------------------

using TileFn = void (*)(bool first, std::size_t kb, const double* a, std::size_t lda,
                        const double* panel, const double* bias, double* c,
                        std::size_t c_row_stride, std::size_t c_col_stride);

template <std::size_t NR, std::size_t KC>
void gemm_bt_paneled(std::size_t m, std::size_t n, std::size_t k, const double* a,
                     std::size_t lda, const double* b, std::size_t ldb,
                     const double* bias, double* c, std::size_t c_row_stride,
                     std::size_t c_col_stride, TileFn tile4, TileFn tile1,
                     double* panel) {
  std::size_t j0 = 0;
  for (; j0 + NR <= n; j0 += NR) {
    const double* bias_j = bias ? bias + j0 : nullptr;
    double* c_j = c + j0 * c_col_stride;
    std::size_t k0 = 0;
    for (;;) {
      const std::size_t kb = std::min(KC, k - k0);
      for (std::size_t jj = 0; jj < NR; ++jj) {
        const double* b_row = b + (j0 + jj) * ldb + k0;
        for (std::size_t kk = 0; kk < kb; ++kk) panel[kk * NR + jj] = b_row[kk];
      }
      const bool first = k0 == 0;
      std::size_t i0 = 0;
      for (; i0 + 4 <= m; i0 += 4) {
        tile4(first, kb, a + i0 * lda + k0, lda, panel, bias_j,
              c_j + i0 * c_row_stride, c_row_stride, c_col_stride);
      }
      for (; i0 < m; ++i0) {
        tile1(first, kb, a + i0 * lda + k0, lda, panel, bias_j,
              c_j + i0 * c_row_stride, c_row_stride, c_col_stride);
      }
      k0 += kb;
      if (k0 >= k) break;
    }
  }
  if (j0 < n) {
    edge_tile(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, 0, m, j0,
              n - j0);
  }
}

// ---------------------------------------------------------------------------
// SSE2 kernel: NR = 4 columns as two 2-lane xmm vectors, 4-row tiles
// (8 xmm accumulators). Baseline x86-64 ISA, so no target attribute.
// ---------------------------------------------------------------------------

inline __m128d sse2_load_c2(const double* c, std::size_t ccs) {
  if (ccs == 1) return _mm_loadu_pd(c);
  return _mm_set_pd(c[ccs], c[0]);
}

inline void sse2_store_c2(double* c, std::size_t ccs, __m128d v) {
  if (ccs == 1) {
    _mm_storeu_pd(c, v);
    return;
  }
  _mm_storel_pd(c, v);
  _mm_storeh_pd(c + ccs, v);
}

template <std::size_t MR>
void sse2_tile(bool first, std::size_t kb, const double* a, std::size_t lda,
               const double* panel, const double* bias, double* c,
               std::size_t c_row_stride, std::size_t c_col_stride) {
  __m128d acc[MR][2];
  if (first) {
    __m128d seed0 = _mm_setzero_pd(), seed1 = _mm_setzero_pd();
    if (bias) {
      seed0 = _mm_loadu_pd(bias);
      seed1 = _mm_loadu_pd(bias + 2);
    }
    for (std::size_t r = 0; r < MR; ++r) {
      acc[r][0] = seed0;
      acc[r][1] = seed1;
    }
  } else {
    for (std::size_t r = 0; r < MR; ++r) {
      double* c_row = c + r * c_row_stride;
      acc[r][0] = sse2_load_c2(c_row, c_col_stride);
      acc[r][1] = sse2_load_c2(c_row + 2 * c_col_stride, c_col_stride);
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const __m128d p0 = _mm_load_pd(panel + kk * 4);
    const __m128d p1 = _mm_load_pd(panel + kk * 4 + 2);
    for (std::size_t r = 0; r < MR; ++r) {
      const __m128d av = _mm_load1_pd(a + r * lda + kk);
      acc[r][0] = _mm_add_pd(acc[r][0], _mm_mul_pd(av, p0));
      acc[r][1] = _mm_add_pd(acc[r][1], _mm_mul_pd(av, p1));
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    double* c_row = c + r * c_row_stride;
    sse2_store_c2(c_row, c_col_stride, acc[r][0]);
    sse2_store_c2(c_row + 2 * c_col_stride, c_col_stride, acc[r][1]);
  }
}

void gemm_bt_sse2(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb,
                  const double* bias, double* c, std::size_t c_row_stride,
                  std::size_t c_col_stride) {
  constexpr std::size_t kPanelCols = 4, kPanelK = 256;
  alignas(16) double panel[kPanelCols * kPanelK];
  gemm_bt_paneled<kPanelCols, kPanelK>(m, n, k, a, lda, b, ldb, bias, c,
                                       c_row_stride, c_col_stride, &sse2_tile<4>,
                                       &sse2_tile<1>, panel);
}

// ---------------------------------------------------------------------------
// AVX2 kernel: NR = 8 columns as two 4-lane ymm vectors, 4-row tiles
// (8 ymm accumulators, the shape the issue calls for). Compiled with a
// target attribute so the rest of the library stays baseline; the
// dispatcher only installs it after cpuid says the CPU can run it. It is
// compiled WITHOUT the fma feature, so the compiler cannot contract
// mul+add into a fused op — that is what keeps it bit-identical.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d avx2_load_c4(const double* c,
                                                            std::size_t ccs) {
  if (ccs == 1) return _mm256_loadu_pd(c);
  return _mm256_set_pd(c[3 * ccs], c[2 * ccs], c[ccs], c[0]);
}

__attribute__((target("avx2"))) inline void avx2_store_c4(double* c, std::size_t ccs,
                                                          __m256d v) {
  if (ccs == 1) {
    _mm256_storeu_pd(c, v);
    return;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  c[0] = lanes[0];
  c[ccs] = lanes[1];
  c[2 * ccs] = lanes[2];
  c[3 * ccs] = lanes[3];
}

template <std::size_t MR>
__attribute__((target("avx2"))) void avx2_tile(bool first, std::size_t kb,
                                               const double* a, std::size_t lda,
                                               const double* panel, const double* bias,
                                               double* c, std::size_t c_row_stride,
                                               std::size_t c_col_stride) {
  __m256d acc[MR][2];
  if (first) {
    __m256d seed0 = _mm256_setzero_pd(), seed1 = _mm256_setzero_pd();
    if (bias) {
      seed0 = _mm256_loadu_pd(bias);
      seed1 = _mm256_loadu_pd(bias + 4);
    }
    for (std::size_t r = 0; r < MR; ++r) {
      acc[r][0] = seed0;
      acc[r][1] = seed1;
    }
  } else {
    for (std::size_t r = 0; r < MR; ++r) {
      double* c_row = c + r * c_row_stride;
      acc[r][0] = avx2_load_c4(c_row, c_col_stride);
      acc[r][1] = avx2_load_c4(c_row + 4 * c_col_stride, c_col_stride);
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const __m256d p0 = _mm256_load_pd(panel + kk * 8);
    const __m256d p1 = _mm256_load_pd(panel + kk * 8 + 4);
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * lda + kk);
      acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(av, p0));
      acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(av, p1));
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    double* c_row = c + r * c_row_stride;
    avx2_store_c4(c_row, c_col_stride, acc[r][0]);
    avx2_store_c4(c_row + 4 * c_col_stride, c_col_stride, acc[r][1]);
  }
}

void gemm_bt_avx2(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb,
                  const double* bias, double* c, std::size_t c_row_stride,
                  std::size_t c_col_stride) {
  constexpr std::size_t kPanelCols = 8, kPanelK = 256;
  alignas(32) double panel[kPanelCols * kPanelK];
  gemm_bt_paneled<kPanelCols, kPanelK>(m, n, k, a, lda, b, ldb, bias, c,
                                       c_row_stride, c_col_stride, &avx2_tile<4>,
                                       &avx2_tile<1>, panel);
}

#endif  // NOODLE_GEMM_X86

// ---------------------------------------------------------------------------
// Dispatch: one atomic function pointer, installed on first use (cpuid probe
// + env override) or explicitly via set_gemm_kernel(). The pointer itself
// identifies the active kernel, so the introspection can never tear.
// ---------------------------------------------------------------------------

using GemmBtFn = void (*)(std::size_t, std::size_t, std::size_t, const double*,
                          std::size_t, const double*, std::size_t, const double*,
                          double*, std::size_t, std::size_t);

GemmBtFn kernel_fn(GemmKernel kernel) noexcept {
  switch (kernel) {
    case GemmKernel::Scalar: return &gemm_bt_scalar;
#if NOODLE_GEMM_X86
    case GemmKernel::Sse2: return &gemm_bt_sse2;
    case GemmKernel::Avx2: return &gemm_bt_avx2;
#else
    default: break;
#endif
  }
  return nullptr;
}

GemmKernel kernel_of(GemmBtFn fn) noexcept {
  for (std::size_t i = 0; i < kGemmKernelCount; ++i) {
    const auto kernel = static_cast<GemmKernel>(i);
    if (kernel_fn(kernel) == fn) return kernel;
  }
  return GemmKernel::Scalar;
}

std::atomic<GemmBtFn> g_gemm_bt{nullptr};

/// NOODLE_GEMM_KERNEL if set and usable, else the fastest available kernel.
GemmKernel pick_kernel() {
  const char* env = std::getenv("NOODLE_GEMM_KERNEL");
  if (env != nullptr && *env != '\0') {
    const std::string_view want(env);
    GemmKernel named = GemmKernel::Scalar;
    bool recognized = true;
    if (want == "scalar") {
      named = GemmKernel::Scalar;
    } else if (want == "sse2") {
      named = GemmKernel::Sse2;
    } else if (want == "avx2") {
      named = GemmKernel::Avx2;
    } else {
      recognized = want == "auto";
      if (!recognized) {
        std::fprintf(stderr, "noodle: unrecognized NOODLE_GEMM_KERNEL=%s, using auto\n",
                     env);
      }
      named = GemmKernel::Scalar;  // fall through to auto below
    }
    if (recognized && want != "auto") {
      if (gemm_kernel_available(named)) return named;
      std::fprintf(stderr, "noodle: NOODLE_GEMM_KERNEL=%s unavailable on this CPU, using auto\n",
                   env);
    }
  }
  if (gemm_kernel_available(GemmKernel::Avx2)) return GemmKernel::Avx2;
  if (gemm_kernel_available(GemmKernel::Sse2)) return GemmKernel::Sse2;
  return GemmKernel::Scalar;
}

GemmBtFn dispatched() noexcept {
  GemmBtFn fn = g_gemm_bt.load(std::memory_order_acquire);
  if (fn == nullptr) {
    // Benign race: concurrent first calls derive the same selection (the
    // env cannot change under a running process's feet in any way we need
    // to care about) and install the same pointer.
    fn = kernel_fn(pick_kernel());
    g_gemm_bt.store(fn, std::memory_order_release);
  }
  return fn;
}

}  // namespace

const char* to_string(GemmKernel kernel) noexcept {
  switch (kernel) {
    case GemmKernel::Scalar: return "scalar";
    case GemmKernel::Sse2: return "sse2";
    case GemmKernel::Avx2: return "avx2";
  }
  return "unknown";
}

bool gemm_kernel_available(GemmKernel kernel) noexcept {
  switch (kernel) {
    case GemmKernel::Scalar: return true;
#if NOODLE_GEMM_X86
    case GemmKernel::Sse2: return __builtin_cpu_supports("sse2") != 0;
    case GemmKernel::Avx2: return __builtin_cpu_supports("avx2") != 0;
#else
    default: return false;
#endif
  }
  return false;
}

GemmKernel active_gemm_kernel() noexcept { return kernel_of(dispatched()); }

GemmKernel set_gemm_kernel(GemmKernel kernel) {
  if (!gemm_kernel_available(kernel)) {
    throw std::invalid_argument(std::string("set_gemm_kernel: ") + to_string(kernel) +
                                " is not available on this CPU");
  }
  const GemmBtFn previous = dispatched();
  g_gemm_bt.store(kernel_fn(kernel), std::memory_order_release);
  return kernel_of(previous);
}

void reset_gemm_kernel() {
  g_gemm_bt.store(kernel_fn(pick_kernel()), std::memory_order_release);
}

void gemm_bt_variant(GemmKernel kernel, std::size_t m, std::size_t n, std::size_t k,
                     const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, const double* bias, double* c,
                     std::size_t c_row_stride, std::size_t c_col_stride) {
  if (!gemm_kernel_available(kernel)) {
    throw std::invalid_argument(std::string("gemm_bt_variant: ") + to_string(kernel) +
                                " is not available on this CPU");
  }
  kernel_fn(kernel)(m, n, k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride);
}

void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, const double* bias,
             double* c, std::size_t c_row_stride, std::size_t c_col_stride) {
  dispatched()(m, n, k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride);
}

void im2col_1d(const double* row, std::size_t in_channels, std::size_t in_len,
               std::size_t kernel, double* col) {
  const std::size_t out_len = in_len - kernel + 1;
  const std::size_t col_width = in_channels * kernel;
  for (std::size_t t = 0; t < out_len; ++t) {
    double* dst = col + t * col_width;
    for (std::size_t ic = 0; ic < in_channels; ++ic) {
      const double* src = row + ic * in_len + t;
      std::copy(src, src + kernel, dst + ic * kernel);
    }
  }
}

}  // namespace noodle::nn
