// The batched inference engine's contract: gemm/im2col kernels and the
// workspace forward path are bit-identical to the naive scalar loops they
// replaced, batched fusion predictions are bit-identical to per-sample
// predict(), and steady-state workspace inference performs zero heap
// allocations (counted by the global operator new override below — this
// suite is its own executable, so the override is scoped to it).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>

#include "fusion/models.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}

// GCC's -Wmismatched-new-delete heuristic cannot see that these replaced
// operators form a consistent malloc/free pair; the diagnostic is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace noodle {
namespace {

using nn::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

// ---------------------------------------------------------------------------
// gemm_bt vs naive dot products
// ---------------------------------------------------------------------------

/// The reference gemm_bt claims bit-identity with: bias-seeded, k-ascending
/// dot products.
void naive_gemm_bt(std::size_t m, std::size_t n, std::size_t k, const double* a,
                   std::size_t lda, const double* b, std::size_t ldb,
                   const double* bias, double* c, std::size_t c_row_stride,
                   std::size_t c_col_stride) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = bias ? bias[j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * lda + kk] * b[j * ldb + kk];
      c[i * c_row_stride + j * c_col_stride] = acc;
    }
  }
}

TEST(GemmBt, BitIdenticalToNaiveAcrossShapes) {
  // Cover the 4x4 blocked path, every edge-tile shape, and k spanning tiny
  // to past the block size.
  for (const std::size_t m : {1u, 3u, 4u, 5u, 8u, 13u}) {
    for (const std::size_t n : {1u, 2u, 4u, 7u, 16u}) {
      for (const std::size_t k : {1u, 3u, 5u, 24u}) {
        const Matrix a = random_matrix(m, k, 100 * m + 10 * n + k);
        const Matrix b = random_matrix(n, k, 200 * m + 10 * n + k);
        std::vector<double> bias(n);
        util::Rng rng(m + n + k);
        for (double& v : bias) v = rng.normal();

        std::vector<double> got(m * n, -1.0), want(m * n, -2.0);
        nn::gemm_bt(m, n, k, a.data().data(), k, b.data().data(), k, bias.data(),
                    got.data(), n, 1);
        naive_gemm_bt(m, n, k, a.data().data(), k, b.data().data(), k, bias.data(),
                      want.data(), n, 1);
        EXPECT_EQ(got, want) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmBt, StridedOutputAndNullBias) {
  // Conv1D writes C transposed via strides: row stride 1, column stride m.
  const std::size_t m = 6, n = 5, k = 7;
  const Matrix a = random_matrix(m, k, 1);
  const Matrix b = random_matrix(n, k, 2);
  std::vector<double> got(m * n, 0.0), want(m * n, 0.0);
  nn::gemm_bt(m, n, k, a.data().data(), k, b.data().data(), k, nullptr, got.data(),
              1, m);
  naive_gemm_bt(m, n, k, a.data().data(), k, b.data().data(), k, nullptr,
                want.data(), 1, m);
  EXPECT_EQ(got, want);
}

TEST(GemmBt, RespectsLeadingDimensions) {
  // A and B embedded in wider buffers: only the first k of each row count.
  const std::size_t m = 5, n = 6, k = 4, lda = 9, ldb = 11;
  const Matrix a = random_matrix(m, lda, 3);
  const Matrix b = random_matrix(n, ldb, 4);
  std::vector<double> got(m * n), want(m * n);
  nn::gemm_bt(m, n, k, a.data().data(), lda, b.data().data(), ldb, nullptr,
              got.data(), n, 1);
  naive_gemm_bt(m, n, k, a.data().data(), lda, b.data().data(), ldb, nullptr,
                want.data(), n, 1);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Kernel dispatch: every registered implementation vs the naive reference
// ---------------------------------------------------------------------------

/// Restores the dispatch target (and the env override) on scope exit, so a
/// test can never leak a pinned kernel into the rest of the suite.
class KernelGuard {
 public:
  KernelGuard() : previous_(nn::active_gemm_kernel()) {}
  ~KernelGuard() {
    unsetenv("NOODLE_GEMM_KERNEL");
    nn::set_gemm_kernel(previous_);
  }

 private:
  nn::GemmKernel previous_;
};

class GemmKernelSuite : public ::testing::TestWithParam<nn::GemmKernel> {
 protected:
  void SetUp() override {
    if (!nn::gemm_kernel_available(GetParam())) {
      GTEST_SKIP() << nn::to_string(GetParam()) << " is not available on this CPU";
    }
  }
};

/// Runs one implementation directly against naive_gemm_bt: every kernel
/// must match it exactly.
void expect_kernel_matches_reference(nn::GemmKernel kernel, std::size_t m,
                                     std::size_t n, std::size_t k, std::size_t lda,
                                     std::size_t ldb, std::size_t c_row_stride,
                                     std::size_t c_col_stride, bool with_bias) {
  const Matrix a = random_matrix(m, lda, 1000 + 100 * m + 10 * n + k);
  const Matrix b = random_matrix(n, ldb, 2000 + 100 * m + 10 * n + k);
  std::vector<double> bias(n);
  util::Rng rng(3000 + m + n + k);
  for (double& v : bias) v = rng.normal();
  const double* bias_ptr = with_bias ? bias.data() : nullptr;

  std::vector<double> got(m * n, -1.0), want(m * n, -2.0);
  nn::gemm_bt_variant(kernel, m, n, k, a.data().data(), lda, b.data().data(), ldb,
                      bias_ptr, got.data(), c_row_stride, c_col_stride);
  naive_gemm_bt(m, n, k, a.data().data(), lda, b.data().data(), ldb, bias_ptr,
                want.data(), c_row_stride, c_col_stride);
  EXPECT_EQ(got, want) << nn::to_string(kernel) << " m=" << m << " n=" << n
                       << " k=" << k;
}

TEST_P(GemmKernelSuite, MatchesReferenceAcrossShapeGrid) {
  // The PR 4 grid plus n ∈ {8, 9} (exact AVX2 panel width and one past it)
  // and k = 300 (past the 256-deep k-chunk, so the accumulator round-trip
  // through C is exercised).
  for (const std::size_t m : {1u, 3u, 4u, 5u, 8u, 13u}) {
    for (const std::size_t n : {1u, 2u, 4u, 7u, 8u, 9u, 16u}) {
      for (const std::size_t k : {1u, 3u, 5u, 24u, 300u}) {
        expect_kernel_matches_reference(GetParam(), m, n, k, k, k, n, 1, true);
      }
    }
  }
}

TEST_P(GemmKernelSuite, StridedOutputAndNullBias) {
  // Conv1D's transposed write: row stride 1, column stride m — the SIMD
  // kernels must fall back to lane-extracted stores here.
  expect_kernel_matches_reference(GetParam(), 6, 5, 7, 7, 7, 1, 6, false);
  expect_kernel_matches_reference(GetParam(), 9, 16, 24, 24, 24, 1, 9, false);
}

TEST_P(GemmKernelSuite, RespectsLeadingDimensions) {
  expect_kernel_matches_reference(GetParam(), 5, 9, 4, 9, 11, 9, 1, false);
}

TEST_P(GemmKernelSuite, ZeroKWritesBias) {
  expect_kernel_matches_reference(GetParam(), 4, 9, 0, 1, 1, 9, 1, true);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GemmKernelSuite,
                         ::testing::Values(nn::GemmKernel::Scalar,
                                           nn::GemmKernel::Sse2,
                                           nn::GemmKernel::Avx2),
                         [](const auto& info) { return nn::to_string(info.param); });

TEST(GemmKernelDispatch, EnvOverrideForcesScalar) {
  KernelGuard guard;
  setenv("NOODLE_GEMM_KERNEL", "scalar", 1);
  nn::reset_gemm_kernel();
  EXPECT_EQ(nn::active_gemm_kernel(), nn::GemmKernel::Scalar);
}

TEST(GemmKernelDispatch, UnrecognizedOverrideFallsBackToAuto) {
  KernelGuard guard;
  unsetenv("NOODLE_GEMM_KERNEL");
  nn::reset_gemm_kernel();
  const nn::GemmKernel automatic = nn::active_gemm_kernel();
  // Unknown values select what auto selects.
  for (const char* value : {"auto", "bogus-kernel", "avx2fma", "fma"}) {
    setenv("NOODLE_GEMM_KERNEL", value, 1);
    nn::reset_gemm_kernel();
    EXPECT_EQ(nn::active_gemm_kernel(), automatic) << value;
  }
}

TEST(GemmKernelDispatch, SetKernelReturnsPreviousAndRoundTrips) {
  KernelGuard guard;
  const nn::GemmKernel original = nn::active_gemm_kernel();
  const nn::GemmKernel previous = nn::set_gemm_kernel(nn::GemmKernel::Scalar);
  EXPECT_EQ(previous, original);
  EXPECT_EQ(nn::active_gemm_kernel(), nn::GemmKernel::Scalar);
  EXPECT_EQ(nn::set_gemm_kernel(original), nn::GemmKernel::Scalar);
}

// ---------------------------------------------------------------------------
// int8 weight encoding
// ---------------------------------------------------------------------------

TEST(WeightPrecisionI8, RoundTripsWithinOneHalfScalePerBuffer) {
  util::Rng rng(41);
  const nn::Sequential model = nn::make_cnn(40, rng);
  std::stringstream blob;
  model.save_weights(blob, nn::WeightPrecision::I8);

  util::Rng rng2(41);
  nn::Sequential restored = nn::make_cnn(40, rng2);
  restored.load_weights(blob);

  const auto original = model.const_params();
  const auto loaded = restored.const_params();
  ASSERT_EQ(original.size(), loaded.size());
  for (std::size_t p = 0; p < original.size(); ++p) {
    ASSERT_EQ(original[p].size, loaded[p].size);
    double peak = 0.0;
    for (std::size_t i = 0; i < original[p].size; ++i) {
      peak = std::max(peak, std::abs(original[p].values[i]));
    }
    const double scale = peak > 0.0 ? peak / 127.0 : 1.0;
    for (std::size_t i = 0; i < original[p].size; ++i) {
      EXPECT_NEAR(loaded[p].values[i], original[p].values[i], 0.5 * scale + 1e-15)
          << "buffer " << p << " index " << i;
    }
  }
}

TEST(WeightPrecisionI8, BlobIsRoughlyEightfoldSmallerThanF64) {
  util::Rng rng(43);
  const nn::Sequential model = nn::make_cnn(40, rng);
  std::stringstream f64_blob, i8_blob;
  model.save_weights(f64_blob, nn::WeightPrecision::F64);
  model.save_weights(i8_blob, nn::WeightPrecision::I8);
  // Per-buffer framing (size + scale) keeps it off exactly 8x; 0.2 leaves
  // room for the tiny-buffer overhead while still proving the compaction.
  EXPECT_LT(static_cast<double>(i8_blob.str().size()),
            0.2 * static_cast<double>(f64_blob.str().size()));
}

// ---------------------------------------------------------------------------
// im2col + layer forwards vs the original scalar loops
// ---------------------------------------------------------------------------

TEST(Im2col, LaysOutReceptiveFieldsChannelMajor) {
  // 2 channels x len 4, kernel 2: col row t must read [c0 t..t+1 | c1 t..t+1].
  const std::size_t ic = 2, len = 4, kernel = 2, olen = 3;
  std::vector<double> row = {0, 1, 2, 3, 10, 11, 12, 13};
  std::vector<double> col(olen * ic * kernel, -1.0);
  nn::im2col_1d(row.data(), ic, len, kernel, col.data());
  const std::vector<double> want = {0, 1, 10, 11, 1, 2, 11, 12, 2, 3, 12, 13};
  EXPECT_EQ(col, want);
}

/// The pre-refactor Conv1D forward: 5-deep scalar loops.
Matrix naive_conv1d_forward(const Matrix& input, const std::vector<double>& weight,
                            const std::vector<double>& bias, std::size_t in_channels,
                            std::size_t in_len, std::size_t out_channels,
                            std::size_t kernel) {
  const std::size_t olen = in_len - kernel + 1;
  Matrix out(input.rows(), out_channels * olen);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t oc = 0; oc < out_channels; ++oc) {
      for (std::size_t t = 0; t < olen; ++t) {
        double acc = bias[oc];
        for (std::size_t ic = 0; ic < in_channels; ++ic) {
          for (std::size_t k = 0; k < kernel; ++k) {
            acc += weight[(oc * in_channels + ic) * kernel + k] *
                   input(r, ic * in_len + t + k);
          }
        }
        out(r, oc * olen + t) = acc;
      }
    }
  }
  return out;
}

TEST(Conv1D, Im2colGemmBitIdenticalToNaiveLoops) {
  for (const std::size_t rows : {1u, 3u, 9u}) {
    util::Rng rng(17);
    nn::Conv1D layer(3, 10, 5, 4, rng);
    // Snapshot the initialized weights through the param views.
    const auto params = layer.params();
    const std::vector<double> weight(params[0].values, params[0].values + params[0].size);
    std::vector<double> bias(params[1].values, params[1].values + params[1].size);
    util::Rng bias_rng(rows);
    for (double& v : bias) v = bias_rng.normal();
    std::copy(bias.begin(), bias.end(), params[1].values);

    const Matrix input = random_matrix(rows, 30, 40 + rows);
    const Matrix got = layer.forward(input, /*train=*/false);
    const Matrix want = naive_conv1d_forward(input, weight, bias, 3, 10, 5, 4);
    EXPECT_EQ(got.data(), want.data()) << "rows=" << rows;
  }
}

/// The pre-refactor Dense forward: per-element dot products.
Matrix naive_dense_forward(const Matrix& input, const std::vector<double>& weight,
                           const std::vector<double>& bias, std::size_t in,
                           std::size_t out_features) {
  Matrix out(input.rows(), out_features);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t o = 0; o < out_features; ++o) {
      double acc = bias[o];
      const double* w_row = weight.data() + o * in;
      for (std::size_t i = 0; i < in; ++i) acc += w_row[i] * input(r, i);
      out(r, o) = acc;
    }
  }
  return out;
}

TEST(Dense, GemmBitIdenticalToNaiveLoops) {
  for (const std::size_t rows : {1u, 5u, 16u, 33u}) {
    util::Rng rng(23);
    nn::Dense layer(13, 7, rng);
    const auto params = layer.params();
    const std::vector<double> weight(params[0].values, params[0].values + params[0].size);
    std::vector<double> bias(params[1].values, params[1].values + params[1].size);
    util::Rng bias_rng(rows + 1);
    for (double& v : bias) v = bias_rng.normal();
    std::copy(bias.begin(), bias.end(), params[1].values);

    const Matrix input = random_matrix(rows, 13, 60 + rows);
    const Matrix got = layer.forward(input, /*train=*/false);
    const Matrix want = naive_dense_forward(input, weight, bias, 13, 7);
    EXPECT_EQ(got.data(), want.data()) << "rows=" << rows;
  }
}

// ---------------------------------------------------------------------------
// Workspace inference: bit-identity, reuse across batch sizes, zero allocs
// ---------------------------------------------------------------------------

TEST(InferenceWorkspace, BitIdenticalToAllocatingInferAcrossBatchSizes) {
  util::Rng rng(3);
  const nn::Sequential model = nn::make_cnn(40, rng);
  nn::InferenceWorkspace ws;  // deliberately not reserved: grows on demand
  // Shrinking and regrowing exercises reuse across differently-sized batches.
  for (const std::size_t rows : {64u, 1u, 16u, 5u, 64u, 37u}) {
    const Matrix input = random_matrix(rows, 40, 70 + rows);
    const Matrix want = model.infer(input);
    const Matrix& got = model.infer(input, ws);
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    EXPECT_EQ(got.data(), want.data()) << "rows=" << rows;
  }
}

TEST(InferenceWorkspace, SteadyStateInferDoesZeroAllocations) {
  util::Rng rng(5);
  const nn::Sequential model = nn::make_cnn(40, rng);
  const Matrix big = random_matrix(64, 40, 9);
  const Matrix small = random_matrix(7, 40, 10);

  nn::InferenceWorkspace ws;
  model.reserve_workspace(ws, big.rows(), big.cols());

  // reserve_workspace pre-sizes everything: even the FIRST batch is free.
  std::size_t before = g_allocation_count.load();
  (void)model.infer(big, ws);
  EXPECT_EQ(g_allocation_count.load() - before, 0u) << "first batch after reserve";

  // Smaller batches reuse the grown buffers.
  before = g_allocation_count.load();
  (void)model.infer(small, ws);
  (void)model.infer(big, ws);
  EXPECT_EQ(g_allocation_count.load() - before, 0u) << "steady state";
}

TEST(InferenceWorkspace, RejectsInputAliasingAWorkspaceBuffer) {
  // Feeding a workspace-owned matrix back in (chaining two models through
  // one workspace) would be silently corrupted by the ping-pong reshapes.
  util::Rng rng(8);
  const nn::Sequential model = nn::make_cnn(24, rng);
  nn::InferenceWorkspace ws;
  ws.ping.reshape(2, 24);
  ws.pong.reshape(2, 24);
  EXPECT_THROW(model.infer(ws.ping, ws), std::invalid_argument);
  EXPECT_THROW(model.infer(ws.pong, ws), std::invalid_argument);
  // A second workspace makes chaining legal.
  nn::InferenceWorkspace ws2;
  const Matrix input = random_matrix(2, 24, 12);
  const Matrix& mid = model.infer(input, ws);  // (2, 1) logits, owned by ws
  nn::Sequential head;
  head.add(std::make_unique<nn::Sigmoid>());
  EXPECT_NO_THROW(head.infer(mid, ws2));
}

TEST(InferenceWorkspace, LazyGrowthReachesSteadyState) {
  util::Rng rng(6);
  const nn::Sequential model = nn::make_cnn(24, rng);
  const Matrix input = random_matrix(12, 24, 11);
  nn::InferenceWorkspace ws;
  (void)model.infer(input, ws);  // warm-up growth
  const std::size_t before = g_allocation_count.load();
  (void)model.infer(input, ws);
  EXPECT_EQ(g_allocation_count.load() - before, 0u);
}

// ---------------------------------------------------------------------------
// Batched fusion predictions vs per-sample predict()
// ---------------------------------------------------------------------------

data::FeatureDataset blob_dataset(std::size_t per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  data::FeatureDataset ds;
  for (const int label : {0, 1}) {
    for (std::size_t i = 0; i < per_class; ++i) {
      data::FeatureSample s;
      const double g = label == 1 ? 1.5 : -1.5;
      const double t = label == 1 ? -1.0 : 1.0;
      for (int d = 0; d < 10; ++d) s.graph.push_back(rng.normal(g, 1.0));
      for (int d = 0; d < 9; ++d) s.tabular.push_back(rng.normal(t, 1.0));
      s.label = label;
      ds.samples.push_back(std::move(s));
    }
  }
  util::Rng shuffle_rng(seed + 1);
  shuffle_rng.shuffle(ds.samples);
  return ds;
}

class BatchedPrediction : public ::testing::Test {
 protected:
  static fusion::FusionConfig fast_config() {
    fusion::FusionConfig config;
    config.train.epochs = 10;
    config.train.validation_fraction = 0.0;
    config.seed = 7;
    return config;
  }
  void SetUp() override {
    train_ = blob_dataset(25, 1);
    cal_ = blob_dataset(10, 2);
    test_ = blob_dataset(19, 3);  // 38 samples: several partial batch shapes
  }
  data::FeatureDataset train_, cal_, test_;
};

void expect_batch_matches_per_sample(const fusion::ClassifierArm& arm,
                                     const data::FeatureDataset& test) {
  // Several batch sizes, including 1 and a non-divisor of the test size.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                  test.samples.size()}) {
    for (std::size_t start = 0; start < test.samples.size(); start += batch) {
      const std::size_t count = std::min(batch, test.samples.size() - start);
      const std::span<const data::FeatureSample> chunk(test.samples.data() + start,
                                                       count);
      const std::vector<fusion::Prediction> batched = arm.predict_batch(chunk);
      ASSERT_EQ(batched.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        const fusion::Prediction single = arm.predict(chunk[i]);
        EXPECT_EQ(batched[i].probability, single.probability)
            << arm.name() << " batch=" << batch << " i=" << i;
        EXPECT_EQ(batched[i].p_values, single.p_values)
            << arm.name() << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST_F(BatchedPrediction, SingleModalityBitIdentical) {
  fusion::SingleModalityModel model(fusion::Modality::Graph, fast_config());
  model.fit(train_, cal_);
  expect_batch_matches_per_sample(model, test_);
}

TEST_F(BatchedPrediction, EarlyFusionBitIdentical) {
  fusion::EarlyFusionModel model(fast_config());
  model.fit(train_, cal_);
  expect_batch_matches_per_sample(model, test_);
}

TEST_F(BatchedPrediction, LateFusionBitIdentical) {
  fusion::LateFusionModel model(fast_config());
  model.fit(train_, cal_);
  expect_batch_matches_per_sample(model, test_);
  // predict_batch must also match predict_detail's fused result and leave
  // the interpretability cache untouched.
  const auto before = model.last_modality_p_values();
  const auto batched = model.predict_batch(test_.samples);
  for (std::size_t i = 0; i < test_.samples.size(); ++i) {
    const fusion::LateFusionDetail detail = model.predict_detail(test_.samples[i]);
    EXPECT_EQ(batched[i].probability, detail.fused.probability);
    EXPECT_EQ(batched[i].p_values, detail.fused.p_values);
  }
  EXPECT_EQ(model.last_modality_p_values(), before);
}

TEST_F(BatchedPrediction, EmptyBatchIsEmpty) {
  fusion::EarlyFusionModel model(fast_config());
  model.fit(train_, cal_);
  EXPECT_TRUE(model.predict_batch({}).empty());
  EXPECT_TRUE(model.predict_all(data::FeatureDataset{}).empty());
}

TEST_F(BatchedPrediction, PredictAllDelegatesToBatch) {
  fusion::SingleModalityModel model(fusion::Modality::Tabular, fast_config());
  model.fit(train_, cal_);
  const auto all = model.predict_all(test_);
  const auto batched = model.predict_batch(test_.samples);
  ASSERT_EQ(all.size(), batched.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].probability, batched[i].probability);
    EXPECT_EQ(all[i].p_values, batched[i].p_values);
  }
}

}  // namespace
}  // namespace noodle
