#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "ml/dataset.h"
#include "ml/graph.h"
#include "ml/linear.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"

namespace flock::ml {
namespace {

/// Synthetic binary-classification data: y depends on features 0..3 only;
/// remaining features are noise (model sparsity for pruning tests).
Dataset MakeClassificationData(size_t n, size_t features, uint64_t seed) {
  Random rng(seed);
  Dataset data;
  data.x = Matrix(n, features);
  data.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < features; ++c) {
      data.x.at(r, c) = rng.NextGaussian();
    }
    double z = 1.5 * data.x.at(r, 0) - 2.0 * data.x.at(r, 1) +
               1.0 * data.x.at(r, 2) * data.x.at(r, 2) -
               0.8 * data.x.at(r, 3) + 0.2 * rng.NextGaussian();
    data.y[r] = z > 0 ? 1.0 : 0.0;
  }
  return data;
}

Dataset MakeLinearData(size_t n, uint64_t seed) {
  Random rng(seed);
  Dataset data;
  data.x = Matrix(n, 3);
  data.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < 3; ++c) data.x.at(r, c) = rng.NextGaussian();
    double z = 2.0 * data.x.at(r, 0) - 1.0 * data.x.at(r, 1) + 0.5;
    data.y[r] = z > 0 ? 1.0 : 0.0;
  }
  return data;
}

TEST(DatasetTest, TrainTestSplitPartitions) {
  Dataset data = MakeClassificationData(100, 4, 1);
  auto [train, test] = TrainTestSplit(data, 0.25, 7);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.num_features(), 4u);
}

TEST(DatasetTest, MetricsBehave) {
  std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  std::vector<double> labels = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Accuracy(scores, labels), 1.0);
  EXPECT_DOUBLE_EQ(Auc(scores, labels), 1.0);
  std::vector<double> anti = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(Auc(anti, labels), 0.0);
  EXPECT_NEAR(Rmse({1.0, 2.0}, {0.0, 2.0}), std::sqrt(0.5), 1e-12);
}

TEST(LinearTrainerTest, LearnsSeparableProblem) {
  Dataset data = MakeLinearData(2000, 11);
  auto [train, test] = TrainTestSplit(data, 0.2, 3);
  LinearTrainerOptions options;
  LinearModel model = TrainLinear(train, options);
  std::vector<double> scores;
  for (size_t r = 0; r < test.size(); ++r) {
    scores.push_back(model.Score(test.x.row(r)));
  }
  EXPECT_GT(Accuracy(scores, test.y), 0.9);
  EXPECT_GT(Auc(scores, test.y), 0.95);
}

TEST(LinearTrainerTest, L1ProducesSparseWeights) {
  Dataset data = MakeClassificationData(2000, 16, 5);
  LinearTrainerOptions options;
  options.l1 = 0.02;
  options.epochs = 30;
  LinearModel model = TrainLinear(data, options);
  size_t zeros = 0;
  for (double w : model.weights) {
    if (w == 0.0) ++zeros;
  }
  EXPECT_GT(zeros, 0u) << "L1 should zero out some noise features";
}

TEST(TreeTrainerTest, SingleTreeBeatsChance) {
  Dataset data = MakeClassificationData(2000, 6, 13);
  auto [train, test] = TrainTestSplit(data, 0.25, 17);
  TreeTrainerOptions options;
  options.max_depth = 6;
  Tree tree = TrainDecisionTree(train, options);
  std::vector<double> scores;
  for (size_t r = 0; r < test.size(); ++r) {
    scores.push_back(tree.Predict(test.x.row(r)));
  }
  EXPECT_GT(Accuracy(scores, test.y), 0.75);
}

TEST(TreeTrainerTest, DepthLimitRespected) {
  Dataset data = MakeClassificationData(500, 4, 29);
  TreeTrainerOptions options;
  options.max_depth = 2;
  Tree tree = TrainDecisionTree(data, options);
  // Depth 2 => at most 3 internal + 4 leaves = 7 nodes.
  EXPECT_LE(tree.size(), 7u);
}

TEST(ForestTest, ForestBeatsSingleTree) {
  Dataset data = MakeClassificationData(3000, 6, 31);
  auto [train, test] = TrainTestSplit(data, 0.25, 37);
  TreeTrainerOptions tree_options;
  tree_options.max_depth = 5;
  Tree single = TrainDecisionTree(train, tree_options);
  ForestOptions forest_options;
  forest_options.num_trees = 25;
  forest_options.tree = tree_options;
  forest_options.tree.max_features = 3;
  TreeEnsembleModel forest = TrainRandomForest(train, forest_options);

  std::vector<double> single_scores, forest_scores;
  for (size_t r = 0; r < test.size(); ++r) {
    single_scores.push_back(single.Predict(test.x.row(r)));
    forest_scores.push_back(forest.Score(test.x.row(r)));
  }
  EXPECT_GE(Auc(forest_scores, test.y) + 0.02, Auc(single_scores, test.y));
  EXPECT_GT(Auc(forest_scores, test.y), 0.85);
}

TEST(GbtTest, BoostingLearnsNonlinearTarget) {
  Dataset data = MakeClassificationData(4000, 6, 41);
  auto [train, test] = TrainTestSplit(data, 0.25, 43);
  GbtOptions options;
  options.num_trees = 40;
  TreeEnsembleModel model = TrainGradientBoosting(train, options);
  std::vector<double> scores;
  for (size_t r = 0; r < test.size(); ++r) {
    scores.push_back(model.Score(test.x.row(r)));
  }
  EXPECT_GT(Auc(scores, test.y), 0.9);
  // Scores are probabilities.
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(GbtTest, RegressionMode) {
  Random rng(51);
  Dataset data;
  data.x = Matrix(2000, 2);
  data.y.resize(2000);
  for (size_t r = 0; r < 2000; ++r) {
    data.x.at(r, 0) = rng.UniformDouble(-2, 2);
    data.x.at(r, 1) = rng.UniformDouble(-2, 2);
    data.y[r] = 3.0 * data.x.at(r, 0) + data.x.at(r, 1) *
                                             data.x.at(r, 1);
  }
  GbtOptions options;
  options.classification = false;
  options.num_trees = 60;
  options.learning_rate = 0.3;
  TreeEnsembleModel model = TrainGradientBoosting(data, options);
  std::vector<double> predictions;
  for (size_t r = 0; r < data.size(); ++r) {
    predictions.push_back(model.Score(data.x.row(r)));
  }
  EXPECT_LT(Rmse(predictions, data.y), 1.5);
}

// ---------------------------------------------------------------------------
// Pipelines and graphs
// ---------------------------------------------------------------------------

Pipeline MakeTrainedPipeline(uint64_t seed, size_t noise_features = 4) {
  // Inputs: 4 numeric signal + noise numeric + 1 categorical.
  size_t total_numeric = 4 + noise_features;
  Random rng(seed);
  size_t n = 2000;
  Matrix raw(n, total_numeric + 1);
  std::vector<double> y(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < total_numeric; ++c) {
      raw.at(r, c) = rng.NextGaussian() * 2.0 + 1.0;
    }
    raw.at(r, total_numeric) = static_cast<double>(rng.Uniform(3));
    double z = 1.2 * raw.at(r, 0) - 1.4 * raw.at(r, 1) +
               0.9 * raw.at(r, 2) - 0.5 * raw.at(r, 3) +
               (raw.at(r, total_numeric) == 2.0 ? 1.0 : -0.4);
    y[r] = z > 0.3 ? 1.0 : 0.0;
  }

  std::vector<FeatureSpec> specs;
  for (size_t c = 0; c < total_numeric; ++c) {
    specs.push_back(FeatureSpec{StrCat("f", std::to_string(c)),
                                FeatureKind::kNumeric, {}});
  }
  specs.push_back(FeatureSpec{
      "segment", FeatureKind::kCategorical, {"basic", "plus", "pro"}});

  Pipeline pipeline;
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, /*with_imputer=*/true, /*with_scaler=*/true);

  Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = std::move(y);
  GbtOptions options;
  options.num_trees = 25;
  options.max_depth = 4;
  options.seed = seed;
  pipeline.SetTreeModel(TrainGradientBoosting(features, options));
  return pipeline;
}

TEST(PipelineTest, TransformWidthMatchesFeatureWidth) {
  Pipeline pipeline = MakeTrainedPipeline(61);
  EXPECT_EQ(pipeline.feature_width(), 8u + 3u);
  Matrix raw(1, 9, 0.5);
  EXPECT_EQ(pipeline.Transform(raw).cols(), pipeline.feature_width());
}

TEST(PipelineTest, EncodeCategorical) {
  Pipeline pipeline = MakeTrainedPipeline(61);
  EXPECT_DOUBLE_EQ(pipeline.EncodeCategorical(8, "plus"), 1.0);
  EXPECT_TRUE(std::isnan(pipeline.EncodeCategorical(8, "unknown")));
}

TEST(PipelineTest, GraphMatchesScoreRow) {
  Pipeline pipeline = MakeTrainedPipeline(67);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  GraphRuntime runtime(&*graph);

  Random rng(71);
  Matrix raw(256, 9);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < 8; ++c) {
      raw.at(r, c) = rng.NextGaussian() * 2.0 + 1.0;
    }
    raw.at(r, 8) = static_cast<double>(rng.Uniform(3));
  }
  auto scores = runtime.RunToScores(raw);
  ASSERT_TRUE(scores.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR((*scores)[r], pipeline.ScoreRow(raw.row(r)), 1e-9);
  }
}

TEST(PipelineTest, RowScorerMatchesGraph) {
  Pipeline pipeline = MakeTrainedPipeline(73);
  RowScorer scorer(pipeline);
  EXPECT_GT(scorer.num_steps(), 2u);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  GraphRuntime runtime(&*graph);

  Random rng(79);
  Matrix raw(128, 9);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < 8; ++c) raw.at(r, c) = rng.NextGaussian();
    raw.at(r, 8) = static_cast<double>(rng.Uniform(3));
  }
  std::vector<double> interpreted = scorer.ScoreAll(raw);
  auto vectorized = runtime.RunToScores(raw);
  ASSERT_TRUE(vectorized.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR(interpreted[r], (*vectorized)[r], 1e-9);
  }
}

TEST(PipelineTest, MissingValuesImputedConsistently) {
  Pipeline pipeline = MakeTrainedPipeline(83);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  GraphRuntime runtime(&*graph);
  Matrix raw(1, 9, std::nan(""));
  raw.at(0, 8) = 1.0;
  auto scores = runtime.RunToScores(raw);
  ASSERT_TRUE(scores.ok());
  EXPECT_FALSE(std::isnan((*scores)[0]));
  EXPECT_NEAR((*scores)[0], pipeline.ScoreRow(raw.row(0)), 1e-9);
}

TEST(PipelineTest, SerializationRoundTripsExactly) {
  Pipeline pipeline = MakeTrainedPipeline(89);
  std::string text = pipeline.Serialize();
  auto restored = Pipeline::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Serialize(), text);

  Random rng(97);
  for (int i = 0; i < 64; ++i) {
    std::vector<double> row(9);
    for (size_t c = 0; c < 8; ++c) row[c] = rng.NextGaussian();
    row[8] = static_cast<double>(rng.Uniform(3));
    EXPECT_DOUBLE_EQ(pipeline.ScoreRow(row.data()),
                     restored->ScoreRow(row.data()));
  }
}

TEST(PipelineTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Pipeline::Deserialize("not a pipeline").ok());
  EXPECT_FALSE(
      Pipeline::Deserialize("FLOCK_PIPELINE 1\nmodel alien\nend\n").ok());
}

// The corruption matrix: every one of these damaged artifacts must come
// back as Status::Corruption — a recoverable deploy/recovery failure —
// and none may terminate the process (the pre-hardening parser used
// std::stoi/stoul/stod, which throw on garbage and accept trailing junk).
TEST(PipelineTest, DeserializeCorruptionMatrix) {
  const std::string text = MakeTrainedPipeline(89).Serialize();
  auto expect_corruption = [](const std::string& damaged,
                              const std::string& what) {
    auto result = Pipeline::Deserialize(damaged);
    ASSERT_FALSE(result.ok()) << what << ": accepted damaged artifact";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << what << ": " << result.status().ToString();
  };

  // Truncation at every line boundary (a torn write of the stored text).
  for (size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    std::string truncated = text.substr(0, pos + 1);
    if (truncated.size() == text.size()) break;  // full text is valid
    auto result = Pipeline::Deserialize(truncated);
    // A prefix that still ends in a complete section can parse; what it
    // must never do is crash or mis-parse a numeric token. Reject or
    // accept, any failure must be Corruption.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
          << "truncation at byte " << pos;
    }
  }

  // Token-level damage: trailing junk, non-numeric, overflow — each on a
  // numeric field the old parser would have crashed on or misread.
  auto replace_first = [&](const std::string& from, const std::string& to) {
    std::string damaged = text;
    size_t at = damaged.find(from);
    EXPECT_NE(at, std::string::npos) << "fixture lost marker " << from;
    damaged.replace(at, from.size(), to);
    return damaged;
  };
  expect_corruption(replace_first("model trees", "model trees junk-count"),
                    "non-numeric tree count");
  expect_corruption(replace_first("tree ", "tree 12x"), "trailing junk");
  expect_corruption(replace_first("tree ", "tree 99999999999999999999"),
                    "tree node count overflow");
  expect_corruption(replace_first("tree ", "tree -3"),
                    "negative node count");

  // Flipped bytes inside a tree-node line: child indices out of range
  // (crash in Tree::Predict) or cyclic (infinite loop in Tree::Predict).
  {
    size_t header = text.find("tree ");
    ASSERT_NE(header, std::string::npos);
    size_t node_line = text.find('\n', header) + 1;
    size_t node_end = text.find('\n', node_line);
    std::string node = text.substr(node_line, node_end - node_line);
    std::vector<std::string> fields = SplitWhitespace(node);
    ASSERT_EQ(fields.size(), 5u);
    if (fields[0] != "-1") {  // interior root: children are live indices
      auto with_node = [&](const std::string& left,
                           const std::string& right) {
        std::string damaged = text;
        damaged.replace(node_line, node_end - node_line,
                        fields[0] + " " + fields[1] + " " + left + " " +
                            right + " " + fields[4]);
        return damaged;
      };
      expect_corruption(with_node("100000", fields[3]),
                        "left child out of range");
      expect_corruption(with_node(fields[2], "-7"),
                        "negative right child");
      expect_corruption(with_node("0", fields[3]),
                        "cyclic child (points at root)");
      expect_corruption(with_node("2.5", fields[3]),
                        "fractional child index");
    }
  }

  // Vocab / weight count mismatches.
  expect_corruption(replace_first("categorical 3", "categorical 4"),
                    "vocab count overstated");
  expect_corruption(replace_first("categorical 3", "categorical 3x"),
                    "vocab count trailing junk");

  // The undamaged artifact still round-trips after all of the above.
  EXPECT_TRUE(Pipeline::Deserialize(text).ok());
}

// Tree shapes `Tree::Predict` cannot walk, or that a breadth-first
// relayout would blow up: the empty tree (Predict read nodes[0] of an
// empty array), shared-child DAGs (each level doubles the paths, so a
// 40-level chain has 2^40 of them) and orphan nodes.
TreeNode SplitNode(int32_t left, int32_t right) {
  TreeNode node;
  node.feature = 0;
  node.threshold = 0.5;
  node.left = left;
  node.right = right;
  return node;
}

TreeNode LeafNode(double value) {
  TreeNode node;
  node.value = value;
  return node;
}

std::vector<std::pair<std::string, Tree>> BadTrees() {
  Tree chain;
  for (int32_t i = 0; i < 40; ++i) chain.nodes.push_back(SplitNode(i + 1, i + 1));
  chain.nodes.push_back(LeafNode(1.5));
  return {
      {"empty tree", Tree{}},
      {"shared-child DAG",
       Tree{{SplitNode(1, 1), SplitNode(2, 2), SplitNode(3, 3), LeafNode(1.5)}}},
      {"40-level shared-child chain", chain},
      {"orphan node", Tree{{LeafNode(1.0), LeafNode(2.0)}}},
  };
}

const Tree kStump{{SplitNode(1, 2), LeafNode(1.0), LeafNode(2.0)}};

TEST(PipelineTest, DeserializeRejectsTreesPredictCannotWalk) {
  auto text = [](Tree tree) {
    Pipeline pipeline;
    pipeline.SetInputs({FeatureSpec{"x", FeatureKind::kNumeric, {}}});
    TreeEnsembleModel model;
    model.trees = {std::move(tree)};
    pipeline.SetTreeModel(std::move(model));
    return pipeline.Serialize();
  };
  ASSERT_TRUE(Pipeline::Deserialize(text(kStump)).ok());
  for (const auto& [what, tree] : BadTrees()) {
    Stopwatch watch;
    auto result = Pipeline::Deserialize(text(tree));
    EXPECT_LT(watch.ElapsedMillis(), 1000.0) << what;
    ASSERT_FALSE(result.ok()) << what << ": accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << what << ": " << result.status().ToString();
  }
}

TEST(GraphTest, FinalizeRejectsTreesPredictCannotWalk) {
  // A graph reaches the scoring kernel only through Finalize, so the same
  // shapes must be refused there too, not only by the text parser.
  auto finalize = [](Tree tree) {
    ModelGraph graph;
    graph.SetInput(1);
    GraphNode node;
    node.op = OpType::kTreeEnsemble;
    node.trees = {std::move(tree)};
    graph.AddNode(std::move(node));
    return graph.Finalize();
  };
  EXPECT_TRUE(finalize(kStump).ok());
  for (const auto& [what, tree] : BadTrees()) {
    Stopwatch watch;
    Status st = finalize(tree);
    EXPECT_LT(watch.ElapsedMillis(), 1000.0) << what;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << what << ": " << st.ToString();
  }
}

TEST(GraphTest, UsedInputColumnsReflectSparsity) {
  Pipeline pipeline = MakeTrainedPipeline(101, /*noise_features=*/12);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  std::vector<bool> used = graph->UsedInputColumns();
  ASSERT_EQ(used.size(), 17u);  // 16 numeric + 1 categorical
  // Signal features should be used; at least some noise should not be.
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
  size_t unused = 0;
  for (bool u : used) {
    if (!u) ++unused;
  }
  EXPECT_GT(unused, 0u) << "expected some noise features to be unused";
}

TEST(GraphTest, CompactInputsPreservesScores) {
  Pipeline pipeline = MakeTrainedPipeline(103, 12);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  std::vector<bool> used = graph->UsedInputColumns();

  ModelGraph compact = *graph;
  ASSERT_TRUE(compact.CompactInputs(used).ok());
  EXPECT_LT(compact.input_cols(), graph->input_cols());

  GraphRuntime full_runtime(&*graph);
  GraphRuntime compact_runtime(&compact);
  Random rng(107);
  Matrix raw(64, 17);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < 16; ++c) raw.at(r, c) = rng.NextGaussian();
    raw.at(r, 16) = static_cast<double>(rng.Uniform(3));
  }
  // Project the raw matrix to the kept columns.
  std::vector<size_t> kept;
  for (size_t c = 0; c < used.size(); ++c) {
    if (used[c]) kept.push_back(c);
  }
  Matrix narrow(raw.rows(), kept.size());
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < kept.size(); ++c) {
      narrow.at(r, c) = raw.at(r, kept[c]);
    }
  }
  auto full = full_runtime.RunToScores(raw);
  auto pruned = compact_runtime.RunToScores(narrow);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(pruned.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR((*full)[r], (*pruned)[r], 1e-9);
  }
}

TEST(GraphTest, CompactRejectsDroppingUsedColumn) {
  Pipeline pipeline = MakeTrainedPipeline(109);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  std::vector<bool> keep(graph->input_cols(), true);
  std::vector<bool> used = graph->UsedInputColumns();
  // Drop a used column -> must fail.
  for (size_t c = 0; c < used.size(); ++c) {
    if (used[c]) {
      keep[c] = false;
      break;
    }
  }
  EXPECT_FALSE(graph->CompactInputs(keep).ok());
}

TEST(GraphTest, CompressionPreservesInRangeScores) {
  Pipeline pipeline = MakeTrainedPipeline(113);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  size_t before = graph->TotalTreeNodes();

  // Claim the data lives in a narrow slice; trees must agree inside it.
  std::vector<ColumnRange> ranges(9);
  for (size_t c = 0; c < 8; ++c) {
    ranges[c] = ColumnRange{0.0, 1.0, true};
  }
  ranges[8] = ColumnRange{0.0, 2.0, true};

  ModelGraph compressed = *graph;
  size_t removed = CompressTreesWithRanges(&compressed, ranges);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(compressed.TotalTreeNodes(), before - removed);

  GraphRuntime full(&*graph);
  GraphRuntime small(&compressed);
  Random rng(127);
  Matrix raw(128, 9);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < 8; ++c) {
      raw.at(r, c) = rng.NextDouble();  // inside [0, 1]
    }
    raw.at(r, 8) = static_cast<double>(rng.Uniform(3));
  }
  auto a = full.RunToScores(raw);
  auto b = small.RunToScores(raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_NEAR((*a)[r], (*b)[r], 1e-9);
  }
}

TEST(GraphTest, FinalizeValidatesWiring) {
  ModelGraph graph;
  graph.SetInput(2);
  GraphNode bad;
  bad.op = OpType::kScaler;
  bad.scale = {1.0};  // width mismatch: input has 2 cols
  bad.offset = {0.0};
  graph.AddNode(std::move(bad));
  EXPECT_FALSE(graph.Finalize().ok());
}

TEST(GraphTest, LinearPipelineCompiles) {
  Dataset data = MakeLinearData(500, 131);
  LinearModel model = TrainLinear(data, LinearTrainerOptions{});
  Pipeline pipeline;
  pipeline.SetInputs({FeatureSpec{"a", FeatureKind::kNumeric, {}},
                      FeatureSpec{"b", FeatureKind::kNumeric, {}},
                      FeatureSpec{"c", FeatureKind::kNumeric, {}}});
  pipeline.SetLinearModel(model);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  GraphRuntime runtime(&*graph);
  Matrix raw(4, 3, 0.5);
  auto scores = runtime.RunToScores(raw);
  ASSERT_TRUE(scores.ok());
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR((*scores)[r], model.Score(raw.row(r)), 1e-12);
  }
}

}  // namespace
}  // namespace flock::ml
