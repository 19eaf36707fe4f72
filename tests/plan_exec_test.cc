// The tape's execution contract (DESIGN.md §13): one dispatcher runs every
// op at record time, and its numbers depend on nothing but the inputs.
// These tests train the full O2-SiteRec model and the two
// matrix-factorization baselines end to end at 1, 2 and 8 worker threads
// and require *bitwise* equal predictions (kernel grains depend only on
// shapes, never on the thread count). WeightedSegmentSum must reproduce
// SegmentSum(MulColBroadcast(...)) bit for bit in both passes, a
// finite-difference gradient check covers the composite ops, the tensor
// pool must reach a steady state after one training step, and a
// scalar-vs-AVX2 kernel-table comparison pins down the SIMD kernels.

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "nn/buffer_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "sim/dataset.h"

namespace o2sr {
namespace {

using nn::Tape;

sim::SimConfig SmallWorld() {
  sim::SimConfig cfg;
  cfg.city_width_m = 2500.0;
  cfg.city_height_m = 2500.0;
  cfg.num_store_types = 5;
  cfg.num_stores = 60;
  cfg.num_couriers = 30;
  cfg.num_days = 2;
  cfg.peak_orders_per_region_slot = 3.0;
  cfg.seed = 515;
  return cfg;
}

struct Fixture {
  sim::Dataset data;
  core::InteractionList interactions;
  eval::Split split;
  core::InteractionList probe;  // first 8 held-out pairs

  Fixture() : data(sim::GenerateDataset(SmallWorld())) {
    interactions = eval::BuildInteractions(data);
    split = eval::SplitInteractions(data, interactions, {0.8, /*seed=*/4});
    for (size_t i = 0; i < split.test.size() && probe.size() < 8; ++i) {
      probe.push_back(split.test[i]);
    }
  }
};

const Fixture& F() {
  static const Fixture* f = new Fixture();
  return *f;
}

core::TrainContext Ctx() {
  core::TrainContext ctx;
  ctx.data = &F().data;
  ctx.visible_orders = &F().split.train_orders;
  ctx.train = &F().split.train;
  return ctx;
}

enum class Model { kO2SiteRec, kCityTransfer, kBlgCoSvd };

std::unique_ptr<core::SiteRecommender> Make(Model which) {
  switch (which) {
    case Model::kO2SiteRec: {
      core::O2SiteRecConfig cfg;
      cfg.capacity.embedding_dim = 8;
      cfg.rec.embedding_dim = 16;
      cfg.rec.node_heads = 2;
      cfg.rec.time_heads = 2;
      cfg.epochs = 3;
      cfg.learning_rate = 5e-3;
      cfg.seed = 9;
      return std::make_unique<core::O2SiteRecRecommender>(cfg);
    }
    case Model::kCityTransfer:
    case Model::kBlgCoSvd: {
      baselines::BaselineConfig cfg;
      cfg.embedding_dim = 12;
      cfg.epochs = 5;
      cfg.seed = 13;
      return baselines::MakeBaseline(which == Model::kCityTransfer
                                         ? baselines::BaselineKind::kCityTransfer
                                         : baselines::BaselineKind::kBlgCoSvd,
                                     cfg);
    }
  }
  return nullptr;
}

std::vector<double> TrainAndPredict(Model which, int threads) {
  exec::ThreadPool pool(threads, "exec.plan_test");
  exec::PoolScope scope(&pool);
  auto model = Make(which);
  EXPECT_TRUE(model->Train(Ctx()).ok());
  return model->Predict(F().probe).value();
}

// Single-threaded training is the reference every thread count must
// reproduce bit for bit.
void CheckBitIdenticalAcrossThreads(Model which) {
  const std::vector<double> want = TrainAndPredict(which, 1);
  ASSERT_EQ(want.size(), F().probe.size());
  for (int threads : {2, 8}) {
    const std::vector<double> got = TrainAndPredict(which, threads);
    ASSERT_EQ(got.size(), want.size()) << "threads " << threads;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << "threads " << threads << " probe pair " << i;
    }
  }
}

TEST(PlanExecTest, O2SiteRecTrainedBitIdenticalAcrossThreads) {
  CheckBitIdenticalAcrossThreads(Model::kO2SiteRec);
}

TEST(PlanExecTest, CityTransferTrainedBitIdenticalAcrossThreads) {
  CheckBitIdenticalAcrossThreads(Model::kCityTransfer);
}

TEST(PlanExecTest, BlgCoSvdTrainedBitIdenticalAcrossThreads) {
  CheckBitIdenticalAcrossThreads(Model::kBlgCoSvd);
}

// --- WeightedSegmentSum vs the generic pair ------------------------------
// Forward and both input gradients must equal SegmentSum(MulColBroadcast)
// bit for bit, with duplicate segments, empty segments and an upstream
// gradient that reaches the op through a nonlinear loss.

void ExpectSameBits(const nn::Tensor& a, const nn::Tensor& b,
                    const char* label) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << label << " flat index " << i;
  }
}

struct PairGrads {
  nn::Tensor out, gx, gcol;
};

PairGrads RunWeighted(const nn::Tensor& x, const nn::Tensor& col,
                      const std::vector<int>& segment, int num_segments,
                      bool fused) {
  Tape tape;
  nn::Value vx = tape.Input(x);
  nn::Value vc = tape.Input(col);
  nn::Value out =
      fused ? tape.WeightedSegmentSum(vx, vc, segment, num_segments)
            : tape.SegmentSum(tape.MulColBroadcast(vx, vc), segment,
                              num_segments);
  tape.Backward(tape.MeanAll(tape.Mul(tape.Tanh(out), out)));
  return {tape.value(out), tape.grad(vx), tape.grad(vc)};
}

TEST(PlanExecTest, WeightedSegmentSumMatchesGenericPairBitwise) {
  Rng rng(31);
  const nn::Tensor x = nn::Tensor::RandomNormal(9, 5, 1.0, rng);
  const nn::Tensor col = nn::Tensor::RandomNormal(9, 1, 0.7, rng);
  // Segments 1 and 4 are empty; 0, 2 and 3 repeat, out of order.
  const std::vector<int> segment = {3, 0, 0, 2, 3, 2, 0, 5, 3};
  const PairGrads want = RunWeighted(x, col, segment, 6, /*fused=*/false);
  const PairGrads got = RunWeighted(x, col, segment, 6, /*fused=*/true);
  ASSERT_EQ(got.out.rows(), 6);
  ASSERT_EQ(got.gx.rows(), 9);
  ASSERT_EQ(got.gcol.rows(), 9);
  ExpectSameBits(got.out, want.out, "out");
  ExpectSameBits(got.gx, want.gx, "grad x");
  ExpectSameBits(got.gcol, want.gcol, "grad col");
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(got.out.at(1, c), 0.0f);
    EXPECT_EQ(got.out.at(4, c), 0.0f);
  }
}

// --- tensor pool steady state --------------------------------------------
// Every buffer a step draws from TensorPool goes back when its tape dies,
// and nothing else does, so from the second step on the pool neither grows
// nor shrinks.

TEST(PlanExecTest, PooledBytesSteadyAcrossTrainingSteps) {
  std::vector<size_t> pooled;
  core::TrainContext ctx = Ctx();
  ctx.hooks.on_epoch_end = [&pooled](int, double) {
    pooled.push_back(nn::TensorPool::Global().pooled_bytes());
  };
  auto model = Make(Model::kO2SiteRec);
  ASSERT_TRUE(model->Train(ctx).ok());
  ASSERT_EQ(pooled.size(), 3u);
  EXPECT_GT(pooled[1], 0u);
  EXPECT_EQ(pooled[2], pooled[1]);
}

// --- gradcheck -------------------------------------------------------------
// MatMul + bias + each activation, then WeightedSegmentSum: the analytic
// gradient through all of them must match finite differences.

using LossBuilder = std::function<nn::Value(Tape&)>;

double EvalLoss(const LossBuilder& build) {
  Tape tape;
  nn::Value loss = build(tape);
  return tape.value(loss).at(0, 0);
}

void CheckGradients(nn::ParameterStore& store, const LossBuilder& build,
                    double eps = 1e-3, double tol = 2e-2) {
  store.ZeroGrads();
  {
    Tape tape;
    nn::Value loss = build(tape);
    tape.Backward(loss);
  }
  for (const auto& p : store.params()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = EvalLoss(build);
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = EvalLoss(build);
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      const double denom =
          std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "param " << p->name << " index " << i;
    }
  }
}

TEST(PlanExecTest, GradcheckWeightedSegmentSum) {
  nn::ParameterStore store;
  Rng rng(4242);
  nn::Parameter* w1 = store.CreateXavier("w1", 6, 8, rng);
  nn::Parameter* b1 = store.CreateNormal("b1", 1, 8, 0.05, rng);
  nn::Parameter* w2 = store.CreateXavier("w2", 8, 4, rng);
  nn::Parameter* b2 = store.CreateNormal("b2", 1, 4, 0.05, rng);
  nn::Parameter* w3 = store.CreateXavier("w3", 4, 3, rng);
  const nn::Tensor x = nn::Tensor::RandomNormal(10, 6, 0.8, rng);
  const nn::Tensor col = nn::Tensor::RandomNormal(10, 1, 0.5, rng);
  const std::vector<int> segment = {0, 0, 1, 1, 1, 2, 2, 3, 3, 3};

  const LossBuilder build = [&](Tape& tape) {
    nn::Value in = tape.Input(x);
    nn::Value h1 = tape.Relu(
        tape.AddRowBroadcast(tape.MatMul(in, tape.Param(w1)), tape.Param(b1)));
    nn::Value h2 = tape.Tanh(
        tape.AddRowBroadcast(tape.MatMul(h1, tape.Param(w2)), tape.Param(b2)));
    nn::Value h3 = tape.Sigmoid(tape.MatMul(h2, tape.Param(w3)));
    nn::Value pooled =
        tape.WeightedSegmentSum(h3, tape.Input(col), segment, 4);
    return tape.MeanAll(tape.Mul(pooled, pooled));
  };
  CheckGradients(store, build);
}

// --- scalar vs AVX2 kernel tables ----------------------------------------
// The hand-written AVX2 matmul family re-tiles the loops; every element
// must still come out bit-identical to the scalar reference, including
// zero-skip behaviour (exercised by a ReLU-like sparse operand) and the
// accumulate mode. Skipped on builds/CPUs without the AVX2 table.

nn::Tensor SparseRandom(int rows, int cols, double zero_fraction, Rng& rng) {
  nn::Tensor t = nn::Tensor::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < t.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < zero_fraction) t.data()[i] = 0.0f;
  }
  return t;
}

TEST(PlanExecTest, Avx2MatMulKernelsMatchScalarBitwise) {
  const nn::kernels::KernelTable* avx2 = nn::kernels::Avx2Table();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "AVX2 table unavailable on this build/CPU";
  }
  const nn::kernels::KernelTable& scalar = nn::kernels::ScalarTable();
  Rng rng(77);
  // Deliberately awkward shapes: j tails of every width class (32/8/scalar)
  // and a k % 4 tail for the four-chain tb kernel.
  const int m = 13, k = 37, n = 43;
  for (double zero_fraction : {0.0, 0.6}) {
    for (bool accumulate : {false, true}) {
      const nn::Tensor a = SparseRandom(m, k, zero_fraction, rng);
      const nn::Tensor b = SparseRandom(k, n, 0.0, rng);
      const nn::Tensor at = SparseRandom(k, m, zero_fraction, rng);
      const nn::Tensor bt = SparseRandom(n, k, 0.0, rng);
      const nn::Tensor seed_c = SparseRandom(m, n, 0.0, rng);

      nn::Tensor c_s = seed_c, c_v = seed_c;
      if (!accumulate) {
        c_s.Fill(0.0f);
        c_v.Fill(0.0f);
      }
      scalar.matmul_rows(a.data(), b.data(), c_s.data(), 0, m, k, n,
                         accumulate);
      avx2->matmul_rows(a.data(), b.data(), c_v.data(), 0, m, k, n,
                        accumulate);
      ExpectSameBits(c_s, c_v, "matmul_rows");

      nn::Tensor t_s = seed_c, t_v = seed_c;
      if (!accumulate) {
        t_s.Fill(0.0f);
        t_v.Fill(0.0f);
      }
      scalar.matmul_ta_rows(at.data(), b.data(), t_s.data(), 0, m, m, k, n,
                            accumulate);
      avx2->matmul_ta_rows(at.data(), b.data(), t_v.data(), 0, m, m, k, n,
                           accumulate);
      ExpectSameBits(t_s, t_v, "matmul_ta_rows");

      nn::Tensor d_s = seed_c, d_v = seed_c;
      if (!accumulate) {
        d_s.Fill(0.0f);
        d_v.Fill(0.0f);
      }
      scalar.matmul_tb_rows(a.data(), bt.data(), d_s.data(), 0, m, k, n,
                            accumulate);
      avx2->matmul_tb_rows(a.data(), bt.data(), d_v.data(), 0, m, k, n,
                           accumulate);
      ExpectSameBits(d_s, d_v, "matmul_tb_rows");
    }
  }
}

}  // namespace
}  // namespace o2sr
