#pragma once
// Batched inference kernels for the nn layers: a register-blocked GEMM
// (runtime-dispatched across scalar/SSE2/AVX2 implementations) and the
// im2col restructuring that turns Conv1D into it.
//
// Bit-identity contract: every kernel the dispatcher selects by default
// accumulates each output element in exactly the order a naive dot-product
// loop would — seeded from the bias, then k = 0, 1, ..., K-1, with every
// product rounded to double before it is added — so layers rebuilt on these
// kernels produce results bit-identical to the original scalar loops
// (asserted in tests/test_nn_engine.cpp). Blocking and vectorization happen
// only across independent output elements (rows/columns of C), never inside
// one accumulation chain: an AVX2 lane computes the same IEEE-754 op
// sequence for its element as the scalar loop does.
//
// Dispatch: the first gemm_bt() call probes the CPU once (cpuid via
// __builtin_cpu_supports) and installs the fastest kernel the hardware
// supports as a function pointer; NOODLE_GEMM_KERNEL overrides the choice
// for testing (scalar | sse2 | avx2 | auto — an unavailable or
// unrecognized value falls back to auto). The selection is process-global:
// a kernel never changes results, so there is nothing per-model to
// configure.

#include <cstddef>
#include <cstdint>

namespace noodle::nn {

/// C = A · Bᵀ (+ bias), row-major, f64:
///
///   C[i*c_row_stride + j*c_col_stride] =
///       (bias ? bias[j] : 0) + Σ_{kk=0..k-1} A[i*lda + kk] · B[j*ldb + kk]
///
/// for i in [0, m), j in [0, n). A is m×k with leading dimension lda, B is
/// n×k with leading dimension ldb (so B rows are the weight vectors in both
/// Dense and im2col'd Conv1D), bias has length n or is null. The separate
/// row/column strides for C let Conv1D write its channels-major output
/// layout directly. Buffers must not overlap. Dispatches to the active
/// kernel (see above).
void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, const double* bias,
             double* c, std::size_t c_row_stride, std::size_t c_col_stride);

/// The registered gemm_bt implementations. Scalar is the bit-identity
/// reference; Sse2/Avx2 are bit-identical to it.
enum class GemmKernel : std::uint8_t { Scalar = 0, Sse2 = 1, Avx2 = 2 };
inline constexpr std::size_t kGemmKernelCount = 3;

const char* to_string(GemmKernel kernel) noexcept;

/// True when this build and CPU can run the kernel (Scalar is always true;
/// the SIMD kernels require an x86-64 build plus the cpuid feature bit).
bool gemm_kernel_available(GemmKernel kernel) noexcept;

/// The kernel gemm_bt() currently dispatches to (runs the one-time probe if
/// it has not happened yet).
GemmKernel active_gemm_kernel() noexcept;

/// Installs `kernel` as the dispatch target and returns the previous one.
/// Throws std::invalid_argument if the kernel is unavailable on this CPU.
/// The test hook for pinning a specific implementation.
GemmKernel set_gemm_kernel(GemmKernel kernel);

/// Re-runs the automatic selection (NOODLE_GEMM_KERNEL if set and valid,
/// else the fastest available kernel). Lets tests exercise
/// the env-override path after setenv().
void reset_gemm_kernel();

/// Calls a specific implementation directly, bypassing the dispatcher —
/// the hook the parameterized kernel tests and benches use to compare every
/// implementation against the reference on one machine. Throws
/// std::invalid_argument if the kernel is unavailable.
void gemm_bt_variant(GemmKernel kernel, std::size_t m, std::size_t n, std::size_t k,
                     const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, const double* bias, double* c,
                     std::size_t c_row_stride, std::size_t c_col_stride);

/// im2col for 1-D valid convolution over one channels-major sample row
/// `row` = [c0 t0..tL-1 | c1 t0..tL-1 | ...] of in_channels × in_len:
///
///   col[t*(in_channels*kernel) + ic*kernel + kk] = row[ic*in_len + t + kk]
///
/// for t in [0, in_len - kernel + 1). Each col row enumerates the receptive
/// field in (ic outer, kk inner) order — the naive Conv1D accumulation
/// order — so gemm_bt over col reproduces the scalar loops bit-for-bit.
/// `col` must hold (in_len - kernel + 1) * in_channels * kernel elements.
void im2col_1d(const double* row, std::size_t in_channels, std::size_t in_len,
               std::size_t kernel, double* col);

}  // namespace noodle::nn
