// The compiled dense-slot scoring kernel suite (ctest label: `kernel`).
//
// Three contracts under test, per the dense-kernel design:
//
//  1. Differential: over the full model zoo (linear, logistic, boosted
//     trees, averaged forest — with one-hot categoricals, NaN imputation
//     and zero-variance columns) the kernel, the interpreted RowScorer
//     and the GraphRuntime produce BITWISE-identical scores. Not "close":
//     the kernel replaced the named-row scorer on the serving hot path,
//     so any ulp of drift would surface as nondeterministic predictions
//     across deploys.
//
//  2. Robustness bug-sweep: zero-variance scaler columns no longer divide
//     by zero, rows missing features score as NaN-imputed instead of
//     throwing std::out_of_range, arity mismatches are rejected with an
//     error status at the flock::ScoreBatch boundary, and non-chain
//     graphs are refused at deploy (the kernel is the only scoring
//     engine; GraphRuntime is kept as the oracle these tests compare
//     against, not as a fallback).
//
//  3. Coalescing: the serving layer's MicroBatcher groups concurrent
//     single-row calls into shared kernel invocations with bitwise-equal
//     results, bounded waits, and a drain that flushes partial batches.
//     These tests run under TSan via scripts/check.sh's kernel stage.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <iomanip>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "flock/model_registry.h"
#include "flock/scoring.h"
#include "ml/dataset.h"
#include "ml/dense_kernel.h"
#include "ml/graph.h"
#include "ml/linear.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"
#include "serve/coalescer.h"

namespace flock::kernel_test {

using ml::Dataset;
using ml::DenseKernel;
using ml::DenseKernelScratch;
using ml::FeatureKind;
using ml::FeatureSpec;
using ml::GraphNode;
using ml::GraphRuntime;
using ml::LinearModel;
using ml::Matrix;
using ml::ModelGraph;
using ml::OpType;
using ml::Pipeline;
using ml::RowScorer;

/// Bitwise double equality: NaN == NaN, and +0.0 != -0.0. This is the
/// stability contract — EXPECT_DOUBLE_EQ would hide ulp drift and choke
/// on NaN propagation rows.
bool BitEq(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

Matrix RandomRaw(size_t rows, size_t numeric, size_t categories,
                 uint64_t seed, double nan_fraction = 0.0) {
  Random rng(seed);
  Matrix raw(rows, numeric + (categories > 0 ? 1 : 0));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < numeric; ++c) {
      raw.at(r, c) = rng.NextDouble() < nan_fraction
                         ? std::nan("")
                         : rng.NextGaussian() * 2.0 + 1.0;
    }
    if (categories > 0) {
      raw.at(r, numeric) = static_cast<double>(rng.Uniform(categories));
    }
  }
  return raw;
}

std::vector<FeatureSpec> NumericSpecs(size_t n) {
  std::vector<FeatureSpec> specs;
  for (size_t c = 0; c < n; ++c) {
    specs.push_back(
        FeatureSpec{StrCat("f", std::to_string(c)), FeatureKind::kNumeric, {}});
  }
  return specs;
}

/// The model zoo. Every pipeline has 4 numeric inputs + 1 categorical and
/// fitted imputer/scaler featurizers, so NaN and one-hot paths are always
/// exercised; the variants differ in the model head.
Pipeline MakeZooPipeline(const std::string& kind, uint64_t seed) {
  Matrix fit_raw = RandomRaw(600, 4, 3, seed);
  std::vector<FeatureSpec> specs = NumericSpecs(4);
  specs.push_back(
      FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
  Pipeline pipeline;
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(fit_raw, /*with_imputer=*/true,
                          /*with_scaler=*/true);

  Matrix raw = RandomRaw(600, 4, 3, seed + 1);
  Dataset features;
  features.x = pipeline.Transform(raw);
  features.y.resize(raw.rows());
  for (size_t r = 0; r < raw.rows(); ++r) {
    features.y[r] =
        (raw.at(r, 0) - raw.at(r, 1) + 0.3 * raw.at(r, 4)) > 0.5 ? 1.0
                                                                 : 0.0;
  }

  if (kind == "linear" || kind == "logistic") {
    ml::LinearTrainerOptions options;
    options.epochs = 12;
    LinearModel model = TrainLinear(features, options);
    model.logistic = (kind == "logistic");
    pipeline.set_task(kind == "logistic"
                          ? ml::ModelTask::kBinaryClassification
                          : ml::ModelTask::kRegression);
    pipeline.SetLinearModel(model);
  } else if (kind == "gbdt") {
    ml::GbtOptions options;
    options.num_trees = 12;
    options.max_depth = 4;
    options.seed = seed;
    pipeline.SetTreeModel(TrainGradientBoosting(features, options));
  } else {  // forest: averaged ensemble, no link
    ml::ForestOptions options;
    options.num_trees = 9;
    options.tree.max_depth = 4;
    pipeline.SetTreeModel(TrainRandomForest(features, options));
  }
  return pipeline;
}

const char* const kZoo[] = {"linear", "logistic", "gbdt", "forest"};

flock::ModelEntry MakeToyEntry() {
  Pipeline pipeline;
  pipeline.SetInputs({FeatureSpec{"x", FeatureKind::kNumeric, {}},
                      FeatureSpec{"y", FeatureKind::kNumeric, {}}});
  LinearModel model;
  model.weights = {1.5, -2.0};
  model.bias = 0.25;
  model.logistic = true;
  pipeline.SetLinearModel(model);
  flock::ModelEntry entry;
  entry.name = "toy";
  entry.pipeline = pipeline;
  auto graph = pipeline.Compile();
  EXPECT_TRUE(graph.ok());
  entry.graph = std::move(graph).value();
  EXPECT_TRUE(flock::ModelRegistry::AnalyzeEntry(&entry).ok());
  return entry;
}

namespace {

// ---------------------------------------------------------------------------
// 1. Differential: kernel vs interpreted vs graph, bitwise.

TEST(DenseKernelTest, BitwiseStableAcrossModelZoo) {
  uint64_t seed = 101;
  for (const char* kind : kZoo) {
    SCOPED_TRACE(kind);
    Pipeline pipeline = MakeZooPipeline(kind, seed);
    seed += 7;

    auto graph = pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_EQ(kernel.input_cols(), 5u);
    EXPECT_GT(kernel.num_steps(), 2u);
    RowScorer interpreted(pipeline);
    GraphRuntime runtime(&*graph);

    // 10% NaNs: imputation must happen identically in all three paths.
    Matrix raw = RandomRaw(512, 4, 3, seed, /*nan_fraction=*/0.1);
    std::vector<double> old_scores = interpreted.ScoreAll(raw);
    auto graph_scores = runtime.RunToScores(raw);
    ASSERT_TRUE(graph_scores.ok());
    DenseKernelScratch scratch;
    std::vector<double> kernel_scores;
    ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
    ASSERT_EQ(kernel_scores.size(), raw.rows());

    for (size_t r = 0; r < raw.rows(); ++r) {
      EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r])
          << kind << " kernel vs interpreted, row " << r;
      EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r])
          << kind << " kernel vs graph, row " << r;
    }
  }
}

TEST(DenseKernelTest, BatchMatchesSingleRowAcrossBlockBoundary) {
  // 1000 rows > kBlockRows, so ScoreBatch crosses block boundaries and a
  // ragged tail; every score must equal the single-row entry point's.
  Pipeline pipeline = MakeZooPipeline("gbdt", 211);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  ASSERT_GT(1000u, DenseKernel::kBlockRows);

  Matrix raw = RandomRaw(1000, 4, 3, 223, 0.05);
  DenseKernelScratch scratch;
  std::vector<double> batch;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
  DenseKernelScratch row_scratch;
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, batch[r],
                 kernel.ScoreRow(raw.row(r), &row_scratch))
        << "row " << r;
  }
}

TEST(DenseKernelTest, ScratchReuseAcrossModelsIsClean) {
  // One thread_local scratch serves every model on a worker thread; a
  // wider model must not leave residue that perturbs a narrower one.
  Pipeline wide = MakeZooPipeline("gbdt", 307);
  Pipeline narrow = MakeZooPipeline("logistic", 311);
  auto wide_graph = wide.Compile();
  auto narrow_graph = narrow.Compile();
  ASSERT_TRUE(wide_graph.ok() && narrow_graph.ok());
  DenseKernel wide_kernel(*wide_graph);
  DenseKernel narrow_kernel(*narrow_graph);
  ASSERT_TRUE(wide_kernel.ok() && narrow_kernel.ok());

  Matrix raw = RandomRaw(64, 4, 3, 313);
  DenseKernelScratch fresh;
  std::vector<double> expected;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &fresh, &expected).ok());

  DenseKernelScratch shared;
  std::vector<double> warmup;
  ASSERT_TRUE(wide_kernel.ScoreBatch(raw, &shared, &warmup).ok());
  std::vector<double> reused;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &shared, &reused).ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, reused[r], expected[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// 1b. Tree shapes the compiled forest layout must walk exactly like
// Tree::Predict: NaN inputs with no imputer (NaN goes right), single-leaf
// trees (a leaf root is its own fixed point), and a depth-1 stump beside
// unbalanced chains deeper than 20 levels (each tree walks its own depth).

ml::TreeNode LeafNode(double value) {
  ml::TreeNode leaf;
  leaf.value = value;
  return leaf;
}

ml::Tree LeafTree(double value) { return ml::Tree{{LeafNode(value)}}; }

/// Unbalanced chain: level d splits feature d % cols into a leaf and the
/// next level, alternating sides. Thresholds far out in the inputs' tails
/// send most rows down the chain, so deep leaves are actually reached.
ml::Tree ChainTree(size_t depth, size_t cols, Random* rng) {
  ml::Tree tree;
  for (size_t d = 0; d < depth; ++d) {
    const auto self = static_cast<int32_t>(tree.nodes.size());
    const bool leaf_left = d % 2 == 0;
    ml::TreeNode split;
    split.feature = static_cast<int32_t>(d % cols);
    split.threshold = (leaf_left ? -3.0 : 5.0) + rng->NextGaussian() * 0.5;
    split.left = leaf_left ? self + 1 : self + 2;
    split.right = leaf_left ? self + 2 : self + 1;
    tree.nodes.push_back(split);
    tree.nodes.push_back(LeafNode(rng->NextGaussian()));
  }
  tree.nodes.push_back(LeafNode(rng->NextGaussian()));
  return tree;
}

struct TreeShape {
  std::string name;
  Pipeline pipeline;  // numeric inputs only, no imputer or scaler
};

std::vector<TreeShape> TreeShapes() {
  constexpr size_t kCols = 4;
  auto pipeline = [](ml::TreeEnsembleModel model) {
    Pipeline p;
    p.SetInputs(NumericSpecs(kCols));
    p.set_task(ml::ModelTask::kBinaryClassification);
    p.SetTreeModel(std::move(model));
    return p;
  };
  Dataset data;
  data.x = RandomRaw(600, kCols, 0, 401);
  for (size_t r = 0; r < data.x.rows(); ++r) {
    data.y.push_back(data.x.at(r, 0) - data.x.at(r, 2) > 0.5 ? 1.0 : 0.0);
  }
  ml::GbtOptions gbt;
  gbt.num_trees = 12;
  gbt.max_depth = 4;
  gbt.seed = 409;
  ml::TreeEnsembleModel trained = TrainGradientBoosting(data, gbt);

  ml::TreeEnsembleModel with_leaves = trained;
  with_leaves.trees.insert(with_leaves.trees.begin(), LeafTree(0.25));
  with_leaves.trees.insert(with_leaves.trees.begin() + 6, LeafTree(-0.5));
  with_leaves.trees.push_back(LeafTree(0.125));

  ml::TreeEnsembleModel leaves_only;
  leaves_only.trees = {LeafTree(0.5), LeafTree(-0.25), LeafTree(0.75)};
  leaves_only.base = 0.1;
  leaves_only.logistic = true;

  Random rng(419);
  ml::TreeEnsembleModel mixed_depth;
  ml::TreeNode split;
  split.feature = 1;
  split.threshold = 1.0;
  split.left = 1;
  split.right = 2;
  const ml::Tree stump{{split, LeafNode(-0.75), LeafNode(0.5)}};
  mixed_depth.trees = {stump, ChainTree(24, kCols, &rng), stump,
                       ChainTree(21, kCols, &rng)};
  mixed_depth.base = -0.2;
  ml::TreeEnsembleModel mixed_depth_logistic = mixed_depth;
  mixed_depth_logistic.logistic = true;

  return {{"nan_no_imputer", pipeline(trained)},
          {"single_leaf_trees", pipeline(with_leaves)},
          {"leaves_only", pipeline(leaves_only)},
          {"stump_and_chains_raw", pipeline(mixed_depth)},
          {"stump_and_chains_logistic", pipeline(mixed_depth_logistic)}};
}

TEST(DenseKernelTest, TreeShapesScoreRowEqualsBatchEqualsRowScorer) {
  for (const TreeShape& shape : TreeShapes()) {
    SCOPED_TRACE(shape.name);
    auto graph = shape.pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

    // 10% NaN and no imputer: NaN reaches every split and must go right.
    Matrix raw = RandomRaw(1000, 4, 0, 431, /*nan_fraction=*/0.1);
    std::vector<double> interpreted = RowScorer(shape.pipeline).ScoreAll(raw);
    DenseKernelScratch scratch;
    std::vector<double> batch;
    ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
    DenseKernelScratch row_scratch;
    for (size_t r = 0; r < raw.rows(); ++r) {
      const double row = kernel.ScoreRow(raw.row(r), &row_scratch);
      EXPECT_PRED2(BitEq, row, batch[r]) << "row " << r;
      EXPECT_PRED2(BitEq, row, interpreted[r]) << "row " << r;
    }
  }
}

TEST(DenseKernelTest, TreeShapesThresholdVerdictsMatchGraphRuntimeOracle) {
  // The oracle is GraphRuntime, which walks trees with Tree::Predict, so
  // the verdicts are checked against an independent traversal, not
  // against the kernel's own ScoreBatch. 1000 rows cross kBlockRows, and
  // the undecided-row list shrinks across blocks of different sizes.
  ASSERT_GT(1000u, DenseKernel::kBlockRows);
  for (const TreeShape& shape : TreeShapes()) {
    SCOPED_TRACE(shape.name);
    auto graph = shape.pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();

    Matrix raw = RandomRaw(1000, 4, 0, 433, /*nan_fraction=*/0.1);
    auto oracle = GraphRuntime(&*graph).RunToScores(raw);
    ASSERT_TRUE(oracle.ok());
    // Ties at scores the model actually produces are where an early exit
    // with a wrong margin flips a verdict.
    std::vector<double> thresholds = {0.0, 1.0, -0.5, 1.5};
    for (size_t r = 0; r < raw.rows(); r += 41) {
      thresholds.push_back((*oracle)[r]);
    }
    DenseKernelScratch scratch;
    size_t wrong = 0;
    for (double t : thresholds) {
      for (ml::ThresholdOp op :
           {ml::ThresholdOp::kGt, ml::ThresholdOp::kGe, ml::ThresholdOp::kLt,
            ml::ThresholdOp::kLe}) {
        std::vector<bool> verdicts;
        ASSERT_TRUE(kernel.ScoreThreshold(raw, t, op, &scratch, &verdicts)
                        .ok());
        ASSERT_EQ(verdicts.size(), raw.rows());
        for (size_t r = 0; r < raw.rows(); ++r) {
          const double s = (*oracle)[r];
          const bool expected = op == ml::ThresholdOp::kGt   ? s > t
                                : op == ml::ThresholdOp::kGe ? s >= t
                                : op == ml::ThresholdOp::kLt ? s < t
                                                             : s <= t;
          if (verdicts[r] != expected && wrong++ == 0) {
            ADD_FAILURE() << std::setprecision(17) << "row " << r
                          << " score " << s << " threshold " << t << " op "
                          << static_cast<int>(op);
          }
        }
      }
    }
    EXPECT_EQ(wrong, 0u) << "over " << thresholds.size() << " thresholds";
  }
}

// ---------------------------------------------------------------------------
// 2a. Zero-variance scaler columns (the divide-by-zero bug).

TEST(ScalerGuardTest, ZeroVarianceColumnIsPassThroughEverywhere) {
  // A column whose training std is exactly 0 used to compile to
  // scale = 1/0 = inf, poisoning every score downstream. The guard clamps
  // |std| <= kMinScaleStd to 1.0, so the column passes through centered,
  // and all three scorers agree bitwise.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(3));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetImputer({0.0, 0.0, 0.0});
  pipeline.SetScaler({1.0, 5.0, -2.0}, {2.0, 0.0, 1e-300});
  LinearModel model;
  model.weights = {0.5, 1.0, -0.25};
  model.bias = 0.125;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  RowScorer interpreted(pipeline);
  GraphRuntime runtime(&*graph);

  Matrix raw(3, 3);
  raw.data() = {2.0, 5.0, -2.0, -1.0, 7.5, 0.0, 0.0, 5.0, -2.0};
  auto graph_scores = runtime.RunToScores(raw);
  ASSERT_TRUE(graph_scores.ok());
  DenseKernelScratch scratch;
  std::vector<double> kernel_scores;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
  std::vector<double> old_scores = interpreted.ScoreAll(raw);

  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_TRUE(std::isfinite(kernel_scores[r])) << "row " << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r]) << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r]) << r;
  }
  // Pass-through of the offset: the guarded columns contribute
  // (v - mean) * 1.0. Row 0 sits exactly on the means, so only the first
  // (healthy) column moves the score.
  EXPECT_DOUBLE_EQ(kernel_scores[0], 0.5 * 0.5 + 0.125);
  // And a guarded column still influences the score (centered, not
  // zeroed): row 1 moves it to 7.5 and the tiny-std column to 0.
  EXPECT_DOUBLE_EQ(kernel_scores[1],
                   0.5 * -1.0 + 1.0 * 2.5 - 0.25 * 2.0 + 0.125);
}

TEST(ScalerGuardTest, PipelineTransformAndScoreRowGuarded) {
  // The same guard covers the eager Pipeline paths (Transform/ScoreRow),
  // which divide by std rather than multiplying by the compiled scale.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetScaler({0.0, 3.0}, {1.0, 0.0});
  LinearModel model;
  model.weights = {1.0, 1.0};
  model.bias = 0.0;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  Matrix raw(1, 2);
  raw.data() = {2.0, 4.5};
  Matrix transformed = pipeline.Transform(raw);
  EXPECT_DOUBLE_EQ(transformed.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(transformed.at(0, 1), 1.5);  // (4.5-3)/guard(0) = 1.5
  EXPECT_DOUBLE_EQ(pipeline.ScoreRow(raw.row(0)), 3.5);
}

// ---------------------------------------------------------------------------
// 2b. Missing features: NaN-imputed results, never std::out_of_range.

TEST(RowScorerTest, ShortRowScoresAsNaNImputed) {
  // RowScorer::Score used to call row.at(name) and throw out_of_range
  // straight through the serving stack when a feature was absent. Now a
  // missing raw entry behaves exactly like an explicit NaN: the imputer
  // fills it.
  Pipeline pipeline = MakeZooPipeline("gbdt", 401);
  RowScorer scorer(pipeline);

  std::vector<double> full = {1.0, -0.5, 2.0, 0.25, 1.0};
  std::vector<double> with_nan = full;
  with_nan[3] = std::nan("");
  std::vector<double> truncated = {1.0, -0.5, 2.0};  // f3 + seg missing

  double full_score = 0.0, nan_score = 0.0, short_score = 0.0;
  EXPECT_NO_THROW(full_score = scorer.Score(full));
  EXPECT_NO_THROW(nan_score = scorer.Score(with_nan));
  EXPECT_NO_THROW(short_score = scorer.Score(truncated));
  EXPECT_TRUE(std::isfinite(full_score));
  EXPECT_TRUE(std::isfinite(nan_score));
  EXPECT_TRUE(std::isfinite(short_score));

  // A short row is the same as padding with NaN.
  std::vector<double> padded = {1.0, -0.5, 2.0, std::nan(""),
                                std::nan("")};
  EXPECT_PRED2(BitEq, short_score, scorer.Score(padded));
}

TEST(RowScorerTest, MissingFeatureWithoutImputerYieldsNaNNotThrow) {
  // No imputer in the pipeline: the NaN must propagate to the score (a
  // deterministic "don't know"), not explode as an exception.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  LinearModel model;
  model.weights = {1.0, 2.0};
  model.bias = 0.0;
  pipeline.SetLinearModel(model);
  RowScorer scorer(pipeline);

  double score = 0.0;
  EXPECT_NO_THROW(score = scorer.Score({3.0}));
  EXPECT_TRUE(std::isnan(score));
}

TEST(RowScorerTest, NoModelFallbackIsDeterministic) {
  // A featurizer-only pipeline has no "score" output. With one input the
  // passthrough value is unambiguous; with several, the old code returned
  // whatever map entry sorted first — now it is a deterministic NaN.
  Pipeline single;
  single.SetInputs(NumericSpecs(1));
  RowScorer single_scorer(single);
  EXPECT_DOUBLE_EQ(single_scorer.Score({4.25}), 4.25);

  Pipeline multi;
  multi.SetInputs(NumericSpecs(3));
  RowScorer multi_scorer(multi);
  double score = 0.0;
  EXPECT_NO_THROW(score = multi_scorer.Score({1.0, 2.0, 3.0}));
  EXPECT_TRUE(std::isnan(score));
}

// ---------------------------------------------------------------------------
// 2c. Non-chain graphs are rejected: Finalize is the one wiring check, and
// neither the kernel nor the registry accepts a graph that has not passed
// it since its last change.

TEST(DenseKernelTest, RejectsNonChainGraphs) {
  // AddNode wires each node to its predecessor, so other wiring can only
  // come from editing a built graph through mutable_nodes().
  ModelGraph chain;
  chain.SetInput(2);
  GraphNode scale;
  scale.op = OpType::kScaler;
  scale.offset = {0.0, 0.0};
  scale.scale = {1.0, 1.0};
  chain.AddNode(scale);
  GraphNode gemm;
  gemm.op = OpType::kGemm;
  gemm.gemm_weights = Matrix(1, 2, 0.5);
  gemm.gemm_bias = {0.0};
  chain.AddNode(gemm);
  ASSERT_TRUE(chain.Finalize().ok());
  EXPECT_EQ(chain.nodes()[2].inputs, std::vector<int>{1});
  ASSERT_TRUE(DenseKernel(chain).ok());

  // The Gemm skipping the scaler, reading itself, reading two inputs, and
  // reading nothing.
  const std::vector<std::vector<int>> wirings = {{0}, {2}, {1, 1}, {}};
  for (const std::vector<int>& inputs : wirings) {
    SCOPED_TRACE(::testing::PrintToString(inputs));
    ModelGraph graph = chain;
    graph.mutable_nodes()[2].inputs = inputs;
    EXPECT_FALSE(graph.finalized());
    DenseKernel kernel(graph);
    EXPECT_FALSE(kernel.ok());
    EXPECT_EQ(kernel.status().code(), StatusCode::kInvalidArgument);

    Status st = graph.Finalize();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_FALSE(DenseKernel(graph).ok());

    // No second engine would score it, so the registry refuses it.
    flock::ModelRegistry registry;
    flock::ModelEntry entry;
    entry.name = "rewired";
    entry.graph = graph;
    st = registry.RegisterSpecialization("rewired#x", entry);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_FALSE(registry.HasSpecialization("rewired#x"));
  }
}

TEST(DenseKernelTest, EmptyGraphIsRejectedNotExecuted) {
  ModelGraph unset;
  EXPECT_FALSE(unset.Finalize().ok());
  EXPECT_FALSE(DenseKernel(unset).ok());

  ModelGraph graph;
  graph.SetInput(3);
  EXPECT_EQ(graph.Finalize().code(), StatusCode::kInvalidArgument);
  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
}

// ---------------------------------------------------------------------------
// 2d. Categorical values outside a vocabulary's slots. A non-string
// argument of a categorical input reaches the kernel unchanged as an
// index, so it can be any double. Converting it to an integer was
// undefined for NaN and for values outside int64 (UBSan's
// float-cast-overflow); every encoder now picks slot trunc(v) when
// -1 < v < k and no slot otherwise.

TEST(OneHotSlotTest, OutOfRangeCategoricalsAgreeEverywhere) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  // {categorical value, slot it selects, slot once NaN is imputed to 0}
  struct Case {
    double value;
    double slot;
    double imputed_slot;
  };
  const Case cases[] = {
      {nan, -1.0, 0.0},    {1e300, -1.0, -1.0}, {-1e300, -1.0, -1.0},
      {inf, -1.0, -1.0},   {-inf, -1.0, -1.0},  {-1.0, -1.0, -1.0},
      {-0.5, 0.0, 0.0},    {0.0, 0.0, 0.0},     {2.5, 2.0, 2.0},
      {3.0, -1.0, -1.0},
  };
  for (bool with_imputer : {false, true}) {
    SCOPED_TRACE(with_imputer ? "imputer" : "no imputer");
    Pipeline pipeline;
    pipeline.SetInputs(
        {FeatureSpec{"x", FeatureKind::kNumeric, {}},
         FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}}});
    if (with_imputer) pipeline.SetImputer({0.25, 0.0});
    pipeline.SetScaler({1.0, 0.0}, {2.0, 1.0});
    LinearModel model;
    model.weights = {0.5, 1.0, -2.0, 4.0};  // x, seg=a, seg=b, seg=c
    model.bias = 0.125;
    pipeline.SetLinearModel(model);
    auto graph = pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    GraphRuntime runtime(&*graph);
    RowScorer interpreted(pipeline);

    Matrix raw(std::size(cases), 2);
    for (size_t r = 0; r < raw.rows(); ++r) {
      raw.at(r, 0) = 0.7;
      raw.at(r, 1) = cases[r].value;
    }
    DenseKernelScratch scratch;
    std::vector<double> batch;
    ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
    auto graph_scores = runtime.RunToScores(raw);
    ASSERT_TRUE(graph_scores.ok());
    std::vector<double> row_scores = interpreted.ScoreAll(raw);

    for (size_t r = 0; r < raw.rows(); ++r) {
      SCOPED_TRACE(cases[r].value);
      // The score of the same row with the slot it should select given as
      // an in-range index (-1 selects none).
      const double slot =
          with_imputer ? cases[r].imputed_slot : cases[r].slot;
      const double in_range[] = {0.7, slot};
      const double expected = pipeline.ScoreRow(in_range);
      EXPECT_PRED2(BitEq, pipeline.ScoreRow(raw.row(r)), expected);
      EXPECT_PRED2(BitEq, kernel.ScoreRow(raw.row(r), &scratch), expected);
      EXPECT_PRED2(BitEq, batch[r], expected);
      EXPECT_PRED2(BitEq, (*graph_scores)[r], expected);
      EXPECT_PRED2(BitEq, row_scores[r], expected);
    }
  }
}

// ---------------------------------------------------------------------------
// flock::ScoreBatch boundary + kernel routing

TEST(ScoringBoundaryTest, MismatchedArityIsRejectedNotTruncated) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_EQ(entry.graph.input_cols(), 2u);

  for (size_t cols : {size_t{1}, size_t{3}, size_t{7}}) {
    Matrix raw(4, cols, 0.5);
    auto scores = flock::ScoreBatch(entry, raw);
    EXPECT_FALSE(scores.ok()) << cols << " cols";
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
    auto verdicts = flock::ScoreThresholdBatch(entry, raw, 0.5,
                                               flock::ThresholdOp::kGt);
    EXPECT_FALSE(verdicts.ok()) << cols << " cols";
    EXPECT_EQ(verdicts.status().code(), StatusCode::kInvalidArgument);
  }

  Matrix ok_raw(4, 2, 0.5);
  EXPECT_TRUE(flock::ScoreBatch(entry, ok_raw).ok());
}

TEST(ScoringBoundaryTest, AnalyzeEntryCompilesKernel) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);
  EXPECT_TRUE(entry.kernel->ok()) << entry.kernel->status().ToString();
  EXPECT_EQ(entry.kernel->input_cols(), 2u);
}

TEST(ScoringBoundaryTest, ScoreBatchMatchesGraphRuntimeOracle) {
  // The serving entry point agrees bitwise with the independent graph
  // interpreter — the guarantee that lets every caller (serving,
  // lifecycle shadow/canary, the optimizer's specializations) trust the
  // one kernel.
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);

  Random rng(17);
  Matrix raw(64, 2);
  for (size_t r = 0; r < raw.rows(); ++r) {
    raw.at(r, 0) = rng.NextGaussian();
    raw.at(r, 1) = rng.NextGaussian();
  }
  auto with_kernel = flock::ScoreBatch(entry, raw);
  ASSERT_TRUE(with_kernel.ok());

  auto oracle = GraphRuntime(&entry.graph).RunToScores(raw);
  ASSERT_TRUE(oracle.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, (*with_kernel)[r], (*oracle)[r]) << "row " << r;
  }

  // An entry that never went through the registry has no kernel; scoring
  // it is an error, not a detour through another engine.
  flock::ModelEntry no_kernel = entry;
  no_kernel.kernel = nullptr;
  EXPECT_FALSE(flock::ScoreBatch(no_kernel, raw).ok());
  EXPECT_FALSE(flock::ScoreThresholdBatch(no_kernel, raw, 0.5,
                                          flock::ThresholdOp::kGt)
                   .ok());
}

// ---------------------------------------------------------------------------
// 3. serve::MicroBatcher — coalescing correctness under concurrency.

std::vector<double> ReferenceScores(const flock::ModelEntry& entry,
                                    const Matrix& rows) {
  auto scores = flock::ScoreBatch(entry, rows);
  EXPECT_TRUE(scores.ok());
  return std::move(scores).value();
}

TEST(MicroBatcherTest, CoalescedScoresAreBitwiseIdentical) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 8;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;  // force the window even when lonely
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  Random rng(23);
  Matrix rows(kThreads, 2);
  for (size_t r = 0; r < kThreads; ++r) {
    rows.at(r, 0) = rng.NextGaussian();
    rows.at(r, 1) = rng.NextGaussian();
  }
  std::vector<double> expected = ReferenceScores(entry, rows);

  std::vector<double> got(kThreads, 0.0);
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto score = batcher.ScoreOne(entry, rows.row(t), 2);
      statuses[t] = score.status();
      if (score.ok()) got[t] = *score;
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_PRED2(BitEq, got[t], expected[t]) << "request " << t;
  }
  EXPECT_EQ(batcher.batch_sizes().sum(), static_cast<double>(kThreads));
  // With all 8 released together and a 50 ms window, at least one batch
  // actually coalesced (>= 2 rows in one kernel invocation).
  EXPECT_GT(batcher.rows_coalesced(), 0u);
  EXPECT_LT(batcher.batches_executed() + batcher.bypassed(), kThreads);
  EXPECT_GE(batcher.batch_sizes().count(), 1u);
}

TEST(MicroBatcherTest, DrainFlushesPartialBatchPromptly) {
  // One lone request with a 10 s window and no solo bypass: it becomes a
  // leader and waits. Drain() must flush it immediately — this is what
  // guarantees server Shutdown never waits out a coalescing window.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 32;
  options.max_wait_ms = 10'000.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.7, -0.3};
  std::vector<double> expected = ReferenceScores(entry, row);

  Stopwatch timer;
  auto pending = std::async(std::launch::async, [&] {
    return batcher.ScoreOne(entry, row.row(0), 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  batcher.Drain();
  auto score = pending.get();
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0) << "drain did not flush";
}

TEST(MicroBatcherTest, SoloRequestBypassesWindow) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_wait_ms = 10'000.0;  // would hang if the window applied
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.1, 0.2};
  std::vector<double> expected = ReferenceScores(entry, row);
  Stopwatch timer;
  auto score = batcher.ScoreOne(entry, row.row(0), 2);
  ASSERT_TRUE(score.ok());
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 1000.0);
  EXPECT_EQ(batcher.bypassed(), 1u);
  EXPECT_EQ(batcher.rows_coalesced(), 0u);
}

TEST(MicroBatcherTest, ArityErrorPropagatesToEveryWaiter) {
  // A batch whose execution fails (wrong width for the model) must hand
  // the error to leader and followers alike — nobody hangs, nobody gets
  // a stale score.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 4;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 4;
  std::vector<double> bad_row = {1.0, 2.0, 3.0};  // model wants width 2
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      statuses[t] = batcher.ScoreOne(entry, bad_row.data(), 3).status();
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(statuses[t].ok()) << "request " << t;
    EXPECT_EQ(statuses[t].code(), StatusCode::kInvalidArgument);
  }
}

TEST(MicroBatcherTest, ConcurrentStressStaysCorrect) {
  // The TSan workhorse: many threads, many rounds, tiny window, mixed
  // batch shapes. Every result must still be bitwise-correct for its own
  // row — coalescing must never cross-wire indices.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 6;
  options.max_wait_ms = 0.2;
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  const size_t kRounds = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      DenseKernelScratch scratch;
      for (size_t i = 0; i < kRounds; ++i) {
        double row[2] = {rng.NextGaussian(), rng.NextGaussian()};
        double expected = entry.kernel->ScoreRow(row, &scratch);
        auto score = batcher.ScoreOne(entry, row, 2);
        if (!score.ok() || !BitEq(*score, expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(batcher.batch_sizes().sum(),
            static_cast<double>(kThreads * kRounds));
}

}  // namespace
}  // namespace flock::kernel_test
