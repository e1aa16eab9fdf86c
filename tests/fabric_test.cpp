// Tests for the replicated serving fabric (fabric/fabric.h): replica-group
// shape, the determinism contract (answers bit-identical to the offline
// TwoStepPredictor no matter which replica serves), step-1 routing (the
// generation-tagged route cache; no classifier means the catch-all owns
// the request), keyed power-of-two-choices spreading, replica health
// (draining / dead) and the rolling DrainSwapRevive hot-swap, the full
// escalation ladder rung by rung (dead -> circuit-open with recovery
// probes -> overloaded -> catch-all -> inline cost fallback),
// prediction-aware admission control (shed / defer / drain / overflow /
// shutdown-drain), replica-targeted fault injection, qpp_fabric_*
// metrics, and "fabric"-category tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/two_step.h"
#include "fabric/admission.h"
#include "fabric/fabric.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "serve/prediction_service.h"
#include "workload/pools.h"

namespace qpp::fabric {
namespace {

using workload::QueryType;

core::TwoStepPredictor TrainTwoStep(
    const std::vector<ml::TrainingExample>& ex) {
  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  core::TwoStepPredictor ts(cfg);
  ts.Train(ex, /*min_category_size=*/12);
  return ts;
}

/// Training is the expensive part of every test; one shared model is
/// enough because the fabric under test is always built fresh.
struct TrainedFixture {
  std::vector<ml::TrainingExample> examples =
      fault::PoolExamples(4, 40, 0xFAB7E5u);
  core::TwoStepPredictor ts = TrainTwoStep(examples);

  linalg::Vector probe(QueryType pool, size_t j) const {
    return examples[static_cast<size_t>(pool) * 40 + j].query_features;
  }
};

const TrainedFixture& F() {
  static const TrainedFixture* fixture = new TrainedFixture();
  return *fixture;
}

void ExpectBitIdentical(const core::Prediction& a, const core::Prediction& b) {
  EXPECT_EQ(a.metrics.ToVector(), b.metrics.ToVector());
  EXPECT_EQ(a.mean_neighbor_distance, b.mean_neighbor_distance);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.anomalous, b.anomalous);
  EXPECT_EQ(a.neighbor_indices, b.neighbor_indices);
}

serve::CostCalibration TestCalibration() {
  // elapsed = cost / 100 in log-log space.
  serve::CostCalibration cal;
  cal.slope = 1.0;
  cal.intercept = -2.0;
  cal.fitted = true;
  return cal;
}

/// Replica services that answer deterministically for bit-identity
/// checks: one worker, no batch merging, no result cache, and the model's
/// own word on anomalies.
serve::ServiceConfig PlainConfig() {
  serve::ServiceConfig config;
  config.num_workers = 1;
  config.max_batch = 1;
  config.cache_capacity = 0;
  config.fallback_on_anomalous = false;
  return config;
}

FabricConfig TestConfig(size_t replicas = 3) {
  return MakePerPoolFabricConfig(replicas, PlainConfig());
}

const LoadSignal kCalm{0, 0.0};
const LoadSignal kOverload{4096, 1.0};

AdmissionConfig TestAdmission() {
  AdmissionConfig adm;
  adm.enabled = true;
  adm.p99_slo_seconds = 0.25;
  adm.max_queue_depth = 512;
  return adm;
}

// ---------------------------------------------------------------- shape --

TEST(MakePerPoolFabricConfigTest, OneGroupPerPoolPlusCatchAll) {
  Fabric fabric(MakePerPoolFabricConfig(3), TestCalibration());
  const char* const kNames[] = {"feather", "golf ball", "bowling ball",
                                "wrecking ball", "one-model"};
  const FabricStatsSnapshot stats = fabric.stats();
  ASSERT_EQ(stats.groups.size(), 5u);
  for (size_t g = 0; g < 5; ++g) {
    EXPECT_EQ(stats.groups[g].name, kNames[g]);
    EXPECT_EQ(stats.groups[g].catch_all, g == 4);
    ASSERT_EQ(stats.groups[g].replicas.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(stats.groups[g].replicas[i].label, ReplicaLabel(kNames[g], i));
    }
  }
  EXPECT_EQ(fabric.catch_all_name(), "one-model");
  EXPECT_EQ(fabric.replica_count("feather"), 3u);
  EXPECT_EQ(fabric.replica_count("no-such-group"), 0u);
  EXPECT_NE(fabric.registry("feather", 2), nullptr);
  EXPECT_EQ(fabric.registry("feather", 3), nullptr);
  EXPECT_EQ(fabric.registry("no-such-group", 0), nullptr);
  EXPECT_EQ(fabric.service("no-such-group", 0), nullptr);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric.health("one-model", i), ReplicaHealth::kUp);
  }
  EXPECT_THROW(Fabric(MakePerPoolFabricConfig(0)), CheckFailure);
}

TEST(ReplicaLabelTest, GroupHashIndexAndHealthNames) {
  EXPECT_EQ(ReplicaLabel("feather", 2), "feather#2");
  EXPECT_STREQ(ReplicaHealthName(ReplicaHealth::kUp), "up");
  EXPECT_STREQ(ReplicaHealthName(ReplicaHealth::kDraining), "draining");
  EXPECT_STREQ(ReplicaHealthName(ReplicaHealth::kDead), "dead");
}

// ----------------------------------------------------------- bit identity --

TEST(FabricTest, AnswersBitIdenticalToOfflineTwoStepOnEveryReplica) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());
  // 3 replicas each for 4 experts + the catch-all.
  EXPECT_EQ(PublishTwoStep(f.ts, &fabric), 15u);

  const size_t kProbes = 16;
  std::vector<linalg::Vector> probes;
  std::vector<std::string> expected_group;
  for (size_t j = 0; j < kProbes; ++j) {
    probes.push_back(f.probe(static_cast<QueryType>(j % 4), j / 4));
    expected_group.push_back(workload::QueryTypeName(
        f.ts.base().Predict(probes.back()).predicted_type));
  }

  const size_t kRequests = 96;
  std::set<std::string> replicas_seen;
  for (size_t i = 0; i < kRequests; ++i) {
    const size_t j = i % kProbes;
    const serve::ServeResponse resp =
        fabric.Submit({probes[j], 100.0}).get();
    ASSERT_FALSE(resp.degraded()) << resp.degraded_reason;
    // Responses are stamped with the replica label, "group#index".
    EXPECT_EQ(resp.shard.rfind(expected_group[j] + "#", 0), 0u)
        << resp.shard;
    replicas_seen.insert(resp.shard);
    // The contract: which replica answered never changes a bit.
    ExpectBitIdentical(resp.prediction, f.ts.Predict(probes[j]));
  }
  // The P2C spread used more than one replica per group.
  EXPECT_GT(replicas_seen.size(), 4u);

  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.classified, kProbes);  // once per distinct probe
  EXPECT_EQ(stats.route_cache_hits, kRequests - kProbes);
  EXPECT_EQ(stats.admitted, kRequests);  // admission disabled: all admitted
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.escalations(), 0u);
  EXPECT_EQ(stats.fallback_exhausted, 0u);
  uint64_t served = 0, routed = 0, picks = 0;
  for (const auto& g : stats.groups) {
    routed += g.routed;
    EXPECT_EQ(g.absorbed, 0u);
    for (const auto& r : g.replicas) {
      served += r.service.requests;
      picks += r.picks;
    }
  }
  EXPECT_EQ(served, kRequests);
  EXPECT_EQ(routed, kRequests);
  EXPECT_EQ(picks, kRequests);
}

TEST(FabricTest, RouteCacheIsClassifierGenerationTagged) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(1), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const linalg::Vector probe = f.probe(QueryType::kFeather, 0);
  fabric.Submit({probe, 100.0}).get();
  fabric.Submit({probe, 100.0}).get();
  EXPECT_EQ(fabric.stats().classified, 1u);
  EXPECT_EQ(fabric.stats().route_cache_hits, 1u);

  // Swapping the catch-all (= classifier) model retires the cached
  // verdicts: the next submit classifies again under the new generation.
  fabric.registry(fabric.catch_all_name(), 0)->Publish(f.ts.base());
  fabric.Submit({probe, 100.0}).get();
  EXPECT_EQ(fabric.stats().classified, 2u);
  EXPECT_EQ(fabric.stats().route_cache_hits, 1u);
}

TEST(FabricTest, NoClassifierMeansCatchAllOwnsTheRequest) {
  const TrainedFixture& f = F();
  // A bowling ball: an expert would answer it if the fabric guessed a
  // pool, and the feather expert's answer would be tens of minutes off.
  const linalg::Vector bowling = f.probe(QueryType::kBowlingBall, 0);
  struct Case {
    const char* name;
    bool publish_experts;  // everything but the catch-all is published
  };
  for (const Case& c : {Case{"nothing published", false},
                        Case{"only the catch-all unpublished", true}}) {
    SCOPED_TRACE(c.name);
    Fabric fabric(TestConfig(1), TestCalibration());
    if (c.publish_experts) {
      PublishTwoStep(f.ts, &fabric);
      fabric.registry(fabric.catch_all_name(), 0)->Unpublish();
    }
    // No step-1 verdict exists, so the one-model group owns the request
    // and answers with its own labeled no-model fallback.
    const serve::ServeResponse resp = fabric.Submit({bowling, 200.0}).get();
    EXPECT_TRUE(resp.degraded());
    EXPECT_EQ(resp.degraded_reason, "no-model");
    EXPECT_EQ(resp.shard, "one-model#0");
    const FabricStatsSnapshot stats = fabric.stats();
    EXPECT_EQ(stats.classified, 0u);
    EXPECT_EQ(stats.escalations(), 0u);
    for (const auto& g : stats.groups) {
      EXPECT_EQ(g.routed, g.catch_all ? 1u : 0u) << g.name;
      EXPECT_EQ(g.absorbed, 0u) << g.name;
    }
  }
}

// -------------------------------------------------- power of two choices --

TEST(FabricTest, P2CPickSequenceReplaysBitForBitAndSpreadsLoad) {
  const TrainedFixture& f = F();
  const auto run = [&](uint64_t p2c_seed) {
    FabricConfig config = TestConfig();
    config.p2c_seed = p2c_seed;
    // Deterministic-harness mode: resolve every two-candidate choice with
    // the keyed coin so pick counts cannot depend on worker timing.
    config.p2c_ignore_depth = true;
    Fabric fabric(std::move(config), TestCalibration());
    PublishTwoStep(f.ts, &fabric);
    for (size_t i = 0; i < 120; ++i) {
      fabric.Submit({f.probe(static_cast<QueryType>(i % 4), i % 40), 100.0})
          .get();
    }
    std::vector<std::pair<std::string, uint64_t>> picks;
    for (const auto& g : fabric.stats().groups) {
      for (const auto& r : g.replicas) picks.emplace_back(r.label, r.picks);
    }
    return picks;
  };

  const auto first = run(0xFAB51Cull);
  const auto replay = run(0xFAB51Cull);
  EXPECT_EQ(first, replay);  // same seed: identical pick counts everywhere

  // Every expert replica took some picks (the spread reaches the whole
  // group), and a different seed is a different (valid) spread.
  size_t expert_replicas_used = 0;
  for (const auto& [label, picks] : first) {
    if (label.rfind("one-model", 0) == 0) continue;
    if (picks > 0) ++expert_replicas_used;
  }
  EXPECT_EQ(expert_replicas_used, 12u);
  EXPECT_NE(run(0x5EED5ull), first);
}

// ------------------------------------------------------- replica health --

TEST(FabricTest, DrainingReplicaTakesNoNewPicks) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.SetReplicaHealth("feather", 0, ReplicaHealth::kDraining);
  EXPECT_EQ(fabric.health("feather", 0), ReplicaHealth::kDraining);
  for (size_t i = 0; i < 30; ++i) {
    const serve::ServeResponse resp =
        fabric.Submit({f.probe(QueryType::kFeather, i % 40), 100.0}).get();
    ASSERT_FALSE(resp.degraded());
    EXPECT_NE(resp.shard, "feather#0");
  }
  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.escalations(), 0u);  // the group kept serving
  for (const auto& g : stats.groups) {
    if (g.name != "feather") continue;
    EXPECT_EQ(g.replicas[0].picks, 0u);
    EXPECT_GT(g.replicas[1].picks + g.replicas[2].picks, 0u);
  }
}

TEST(FabricTest, FullyDeadGroupEscalatesToCatchAllWithBaseAnswers) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);
  ASSERT_EQ(fabric.Submit({feather, 100.0}).get().shard.rfind("feather#", 0),
            0u);
  for (size_t i = 0; i < 3; ++i) {
    fabric.SetReplicaHealth("feather", i, ReplicaHealth::kDead);
  }

  const serve::ServeResponse resp = fabric.Submit({feather, 100.0}).get();
  EXPECT_FALSE(resp.degraded());
  EXPECT_EQ(resp.shard.rfind("one-model#", 0), 0u) << resp.shard;
  ExpectBitIdentical(resp.prediction, f.ts.base().Predict(feather));

  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.escalations_dead, 1u);
  EXPECT_EQ(stats.escalations_open + stats.escalations_overloaded, 0u);
  for (const auto& g : stats.groups) {
    if (g.catch_all) {
      EXPECT_EQ(g.absorbed, 1u);
    }
  }

  // Revive one replica: the group takes its pool back, expert bits again.
  fabric.SetReplicaHealth("feather", 1, ReplicaHealth::kUp);
  const serve::ServeResponse back = fabric.Submit({feather, 100.0}).get();
  EXPECT_EQ(back.shard, "feather#1");
  ExpectBitIdentical(back.prediction, f.ts.Predict(feather));
}

TEST(FabricTest, MissingExpertPoolMatchesTwoStepFallbackExactly) {
  // Starve the wrecking category below min_category_size: TwoStep keeps
  // no wrecking expert, PublishTwoStep leaves that group dead, and the
  // fabric's escalation answers with the base model — the exact same
  // fallback the offline predictor takes.
  auto examples = fault::PoolExamples(4, 40, 0xBEEFu);
  examples.erase(examples.begin() + 125, examples.end());  // 5 wrecking rows
  const core::TwoStepPredictor ts = TrainTwoStep(examples);
  ASSERT_FALSE(ts.HasCategoryModel(QueryType::kWreckingBall));

  Fabric fabric(TestConfig(), TestCalibration());
  PublishTwoStep(ts, &fabric);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(fabric.registry("wrecking ball", i)->has_model());
  }

  const linalg::Vector wrecking = examples[122].query_features;
  ASSERT_EQ(ts.base().Predict(wrecking).predicted_type,
            QueryType::kWreckingBall);
  const serve::ServeResponse resp = fabric.Submit({wrecking, 100.0}).get();
  EXPECT_FALSE(resp.degraded());
  EXPECT_EQ(resp.shard.rfind("one-model#", 0), 0u);
  ExpectBitIdentical(resp.prediction, ts.Predict(wrecking));
  EXPECT_EQ(fabric.stats().escalations_dead, 1u);
}

// ------------------------------------------------- rolling drain & swap --

TEST(FabricTest, DrainSwapReviveIsARollingPerReplicaHotSwap) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());
  PublishTwoStep(f.ts, &fabric);
  EXPECT_EQ(fabric.registry("golf ball", 1)->generation(), 1u);

  // Retrain just the golf expert on fresh data and roll it onto replica 1.
  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  auto golf_v2 = std::make_shared<core::Predictor>(cfg);
  const auto fresh = fault::PoolExamples(4, 40, 0xF00Du);
  golf_v2->Train({fresh.begin() + 40, fresh.begin() + 80});
  ASSERT_TRUE(fabric.DrainSwapRevive("golf ball", 1, golf_v2));

  EXPECT_EQ(fabric.health("golf ball", 1), ReplicaHealth::kUp);
  EXPECT_EQ(fabric.registry("golf ball", 1)->generation(), 2u);
  EXPECT_EQ(fabric.registry("golf ball", 0)->generation(), 1u);  // untouched
  EXPECT_EQ(fabric.stats().drains, 1u);

  // Pin traffic to the swapped replica: it must serve the new bits under
  // the new generation while its peers drain.
  fabric.SetReplicaHealth("golf ball", 0, ReplicaHealth::kDraining);
  fabric.SetReplicaHealth("golf ball", 2, ReplicaHealth::kDraining);
  const linalg::Vector golf = f.probe(QueryType::kGolfBall, 3);
  const serve::ServeResponse resp = fabric.Submit({golf, 100.0}).get();
  EXPECT_EQ(resp.shard, "golf ball#1");
  EXPECT_EQ(resp.model_generation, 2u);
  ExpectBitIdentical(resp.prediction, golf_v2->Predict(golf));

  // Only the swapped pool moved: feather keeps its generation and bits.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric.registry("feather", i)->generation(), 1u);
  }
  const linalg::Vector feather = f.probe(QueryType::kFeather, 3);
  const serve::ServeResponse light = fabric.Submit({feather, 100.0}).get();
  EXPECT_EQ(light.shard.rfind("feather#", 0), 0u) << light.shard;
  EXPECT_EQ(light.model_generation, 1u);
  ExpectBitIdentical(light.prediction, f.ts.Predict(feather));

  // Unknown addresses are a clean refusal, not a crash.
  EXPECT_FALSE(fabric.DrainSwapRevive("golf ball", 9, golf_v2));
  EXPECT_FALSE(fabric.DrainSwapRevive("no-such-group", 0, golf_v2));
}

TEST(FabricTest, HotSwapMovesOnlyTheSwappedPool) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);
  const linalg::Vector golf = f.probe(QueryType::kGolfBall, 5);
  ASSERT_EQ(fabric.Submit({feather, 100.0}).get().shard.rfind("feather#", 0),
            0u);
  ASSERT_EQ(fabric.Submit({golf, 100.0}).get().shard.rfind("golf ball#", 0),
            0u);

  // Retrain just the golf expert (fresh data) and roll it onto every golf
  // replica, one drain-swap-revive at a time.
  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  auto golf_v2 = std::make_shared<core::Predictor>(cfg);
  const auto fresh = fault::PoolExamples(4, 40, 0xF00Du);
  golf_v2->Train({fresh.begin() + 40, fresh.begin() + 80});
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fabric.DrainSwapRevive("golf ball", i, golf_v2));
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fabric.registry("golf ball", i)->generation(), 2u);
    EXPECT_EQ(fabric.registry("feather", i)->generation(), 1u);
  }

  // Whichever replica answers, golf traffic gets the new bits and feather
  // traffic is untouched by the golf swap.
  for (size_t n = 0; n < 6; ++n) {
    const serve::ServeResponse g = fabric.Submit({golf, 100.0}).get();
    EXPECT_EQ(g.shard.rfind("golf ball#", 0), 0u) << g.shard;
    EXPECT_EQ(g.model_generation, 2u);
    ExpectBitIdentical(g.prediction, golf_v2->Predict(golf));
    const serve::ServeResponse fr = fabric.Submit({feather, 100.0}).get();
    EXPECT_EQ(fr.shard.rfind("feather#", 0), 0u) << fr.shard;
    EXPECT_EQ(fr.model_generation, 1u);
    ExpectBitIdentical(fr.prediction, f.ts.Predict(feather));
  }
}

// ----------------------------------------------------------- admission --

TEST(AdmissionControllerTest, PolicyTableIsPureAndPoolAware) {
  AdmissionController adm(TestAdmission());
  EXPECT_TRUE(adm.Breached(kOverload));
  EXPECT_FALSE(adm.Breached(kCalm));
  // Breach: heavies shed or defer, lights keep flowing.
  EXPECT_EQ(adm.Decide(QueryType::kWreckingBall, kOverload),
            AdmissionAction::kShed);
  EXPECT_EQ(adm.Decide(QueryType::kBowlingBall, kOverload),
            AdmissionAction::kDefer);
  EXPECT_EQ(adm.Decide(QueryType::kFeather, kOverload),
            AdmissionAction::kAdmit);
  EXPECT_EQ(adm.Decide(QueryType::kGolfBall, kOverload),
            AdmissionAction::kAdmit);
  // Calm: everyone is admitted.
  for (const QueryType pool :
       {QueryType::kFeather, QueryType::kGolfBall, QueryType::kBowlingBall,
        QueryType::kWreckingBall}) {
    EXPECT_EQ(adm.Decide(pool, kCalm), AdmissionAction::kAdmit);
  }
  // The virtual override pins the signal regardless of live load.
  adm.SetVirtualLoad(kOverload);
  EXPECT_TRUE(adm.Breached(adm.Signal(/*live_queue_depth=*/0)));
  adm.SetVirtualLoad(std::nullopt);
  EXPECT_FALSE(adm.Breached(adm.Signal(0)));

  AdmissionConfig disabled;
  AdmissionController off(disabled);
  EXPECT_FALSE(off.Breached(kOverload));
  EXPECT_EQ(off.Decide(QueryType::kWreckingBall, kOverload),
            AdmissionAction::kAdmit);
}

TEST(FabricTest, BreachShedsWreckingBallsWithLabeledCostAnswers) {
  const TrainedFixture& f = F();
  const serve::CostCalibration cal = TestCalibration();
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  Fabric fabric(std::move(config), cal);
  PublishTwoStep(f.ts, &fabric);

  fabric.admission()->SetVirtualLoad(kOverload);
  const serve::ServeResponse shed =
      fabric.Submit({f.probe(QueryType::kWreckingBall, 0), 400.0}).get();
  EXPECT_TRUE(shed.degraded());
  EXPECT_EQ(shed.degraded_reason, "admission-shed");
  EXPECT_EQ(shed.source, serve::ResponseSource::kOptimizerFallback);
  EXPECT_EQ(shed.prediction.metrics.elapsed_seconds,
            cal.EstimateSeconds(400.0));

  // Feathers keep flowing through the same breach, bits intact.
  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);
  const serve::ServeResponse light = fabric.Submit({feather, 100.0}).get();
  EXPECT_FALSE(light.degraded());
  ExpectBitIdentical(light.prediction, f.ts.Predict(feather));

  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.slo_breaches, 2u);  // both decisions ran under breach
}

TEST(FabricTest, DeferredBowlingBallsDrainOnceTheBreachClears) {
  const TrainedFixture& f = F();
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.admission()->SetVirtualLoad(kOverload);
  const linalg::Vector bowling = f.probe(QueryType::kBowlingBall, 0);
  std::future<serve::ServeResponse> parked =
      fabric.Submit({bowling, 100.0});
  // Parked at the front door: the future is out but not ready.
  EXPECT_EQ(parked.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(fabric.stats().deferred, 1u);
  EXPECT_EQ(fabric.stats().defer_drained, 0u);

  // The breach clears; the next admitted request piggyback-drains the
  // parked one, which is answered by the normal expert path.
  fabric.admission()->SetVirtualLoad(kCalm);
  fabric.Submit({f.probe(QueryType::kFeather, 1), 100.0}).get();
  const serve::ServeResponse resp = parked.get();
  EXPECT_FALSE(resp.degraded()) << resp.degraded_reason;
  EXPECT_EQ(resp.shard.rfind("bowling ball#", 0), 0u) << resp.shard;
  ExpectBitIdentical(resp.prediction, f.ts.Predict(bowling));
  EXPECT_EQ(fabric.stats().defer_drained, 1u);
  EXPECT_EQ(fabric.stats().defer_overflow, 0u);
}

TEST(FabricTest, DeferOverflowDegradesToShedInsteadOfBlocking) {
  const TrainedFixture& f = F();
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  config.admission.max_deferred = 2;
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.admission()->SetVirtualLoad(kOverload);
  std::vector<std::future<serve::ServeResponse>> futures;
  for (size_t i = 0; i < 3; ++i) {
    futures.push_back(
        fabric.Submit({f.probe(QueryType::kBowlingBall, i), 100.0}));
  }
  // Two park; the third finds the buffer full and degrades to a shed.
  const serve::ServeResponse overflowed = futures[2].get();
  EXPECT_TRUE(overflowed.degraded());
  EXPECT_EQ(overflowed.degraded_reason, "admission-shed");
  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.deferred, 2u);
  EXPECT_EQ(stats.defer_overflow, 1u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST(FabricTest, ShutdownDispatchesDeferredRequestsBeforeStopping) {
  const TrainedFixture& f = F();
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.admission()->SetVirtualLoad(kOverload);
  const linalg::Vector bowling = f.probe(QueryType::kBowlingBall, 2);
  std::future<serve::ServeResponse> parked =
      fabric.Submit({bowling, 100.0});
  fabric.Shutdown();

  // The deferred request was dispatched ahead of the replica stop, so it
  // got a normal model answer — never a broken promise.
  const serve::ServeResponse resp = parked.get();
  EXPECT_FALSE(resp.degraded()) << resp.degraded_reason;
  ExpectBitIdentical(resp.prediction, f.ts.Predict(bowling));
  EXPECT_EQ(fabric.stats().defer_drained, 1u);
}

TEST(FabricTest, DisabledAdmissionAdmitsEverythingUnconditionally) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(), TestCalibration());  // admission disabled
  PublishTwoStep(f.ts, &fabric);

  // Even a wrecking ball under a (virtually) breached signal is admitted:
  // the policy is never consulted when the master switch is off.
  fabric.admission()->SetVirtualLoad(kOverload);
  const linalg::Vector wrecking = f.probe(QueryType::kWreckingBall, 0);
  const serve::ServeResponse resp = fabric.Submit({wrecking, 100.0}).get();
  EXPECT_FALSE(resp.degraded());
  ExpectBitIdentical(resp.prediction, f.ts.Predict(wrecking));
  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed + stats.deferred + stats.slo_breaches, 0u);
}

// ------------------------------------------------------ fault injection --

TEST(FabricTest, CountedReplicaKillFiresOnTheNthPickAndPeersAbsorb) {
  const TrainedFixture& f = F();
  fault::FaultPlan plan;
  plan.serve.target_replica_label = "feather#1";
  plan.serve.replica_kill_after_picks = 3;
  fault::FaultInjector injector(plan);

  FabricConfig config = TestConfig();
  config.faults = &injector;
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);
  const uint64_t generation = fabric.registry("feather", 1)->generation();
  ASSERT_GT(generation, 0u);

  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);
  size_t in_group = 0, absorbed = 0;
  for (size_t i = 0; i < 60; ++i) {
    const bool killed = injector.injected("replica_kill") > 0;
    const serve::ServeResponse resp = fabric.Submit({feather, 100.0}).get();
    ASSERT_FALSE(resp.degraded()) << resp.degraded_reason;
    // The injection is recorded on the pick that kills, not before it.
    EXPECT_EQ(injector.injected("replica_kill") > 0,
              fabric.health("feather", 1) == ReplicaHealth::kDead)
        << "request " << i;
    if (resp.shard.rfind("feather#", 0) == 0) {
      ++in_group;
      // The target serves its first picks normally; once the counted kill
      // has fired it must never answer again.
      if (killed) {
        EXPECT_NE(resp.shard, "feather#1")
            << "a dead replica answered request " << i;
      }
      ExpectBitIdentical(resp.prediction, f.ts.Predict(feather));
    } else {
      // Only the killing pick itself re-routes: the group has live peers.
      ++absorbed;
      EXPECT_EQ(resp.shard.rfind("one-model#", 0), 0u);
      ExpectBitIdentical(resp.prediction, f.ts.base().Predict(feather));
    }
  }
  // One injection; the fabric marked the target dead and took its model,
  // and the registry kept its generation count.
  EXPECT_EQ(injector.injected("replica_kill"), 1u);
  EXPECT_EQ(fabric.health("feather", 1), ReplicaHealth::kDead);
  EXPECT_FALSE(fabric.registry("feather", 1)->has_model());
  EXPECT_EQ(fabric.registry("feather", 1)->generation(), generation);
  EXPECT_EQ(absorbed, 1u);
  EXPECT_EQ(in_group, 59u);
  EXPECT_EQ(fabric.stats().escalations_dead, 1u);
}

TEST(FabricTest, ReplicaStallsDegradeOnlyTheTargetWithLabeledDeadlines) {
  const TrainedFixture& f = F();
  fault::FaultPlan plan;
  plan.serve.target_replica_label = "golf ball#0";
  plan.serve.replica_stall_probability = 1.0;  // every batch it picks up
  plan.serve.replica_stall_seconds = 60.0;
  fault::FaultInjector injector(plan);

  serve::ServiceConfig service = PlainConfig();
  service.queue_deadline_seconds = 5.0;  // virtual stall blows this
  FabricConfig config = MakePerPoolFabricConfig(3, service);
  config.faults = &injector;
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const linalg::Vector golf = f.probe(QueryType::kGolfBall, 0);
  size_t deadline_seen = 0, clean = 0;
  for (size_t i = 0; i < 40; ++i) {
    const serve::ServeResponse resp = fabric.Submit({golf, 100.0}).get();
    if (resp.degraded()) {
      // Every degradation is the target replica's labeled deadline miss.
      EXPECT_EQ(resp.degraded_reason, "deadline");
      EXPECT_EQ(resp.shard, "golf ball#0");
      ++deadline_seen;
    } else {
      EXPECT_NE(resp.shard, "golf ball#0");
      ExpectBitIdentical(resp.prediction, f.ts.Predict(golf));
      ++clean;
    }
  }
  EXPECT_GT(deadline_seen, 0u);
  EXPECT_GT(clean, 0u);
  // max_batch=1 makes stalls and deadline fallbacks exactly 1:1.
  EXPECT_EQ(injector.injected("replica_stall"), deadline_seen);
}

// --------------------------------------------------------- escalation --

TEST(FabricTest, ExhaustedLadderAnswersInlineCostFallback) {
  const serve::CostCalibration cal = TestCalibration();
  Fabric fabric(TestConfig(), cal);
  // Nothing published and every catch-all replica dead: the bottom rung.
  for (size_t i = 0; i < 3; ++i) {
    fabric.SetReplicaHealth("one-model", i, ReplicaHealth::kDead);
  }
  const serve::ServeResponse resp =
      fabric.Submit({{1.0, 2.0, 3.0, 4.0, 5.0}, 400.0}).get();
  EXPECT_TRUE(resp.degraded());
  EXPECT_EQ(resp.degraded_reason, "fabric-exhausted");
  EXPECT_EQ(resp.source, serve::ResponseSource::kOptimizerFallback);
  EXPECT_EQ(resp.prediction.metrics.elapsed_seconds,
            cal.EstimateSeconds(400.0));
  EXPECT_EQ(fabric.stats().fallback_exhausted, 1u);
}

TEST(FabricTest, RefusingExpertEscalatesOverloaded) {
  const TrainedFixture& f = F();
  Fabric fabric(TestConfig(1), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  // A shut-down service refuses every submit — indistinguishable from a
  // full queue, which is exactly the "overloaded" rung.
  fabric.service("golf ball", 0)->Shutdown();

  const linalg::Vector golf = f.probe(QueryType::kGolfBall, 5);
  ASSERT_EQ(f.ts.base().Classify(golf), QueryType::kGolfBall);
  const serve::ServeResponse resp = fabric.Submit({golf, 100.0}).get();
  EXPECT_FALSE(resp.degraded());
  EXPECT_EQ(resp.shard, "one-model#0");
  ExpectBitIdentical(resp.prediction, f.ts.base().Predict(golf));
  EXPECT_EQ(fabric.stats().escalations_overloaded, 1u);
  EXPECT_EQ(fabric.stats().escalations_dead, 0u);
}

/// Stalls every batch feather#0 picks up for a virtual 60 s.
fault::FaultPlan SickFeatherPlan() {
  fault::FaultPlan plan;
  plan.serve.target_replica_label = "feather#0";
  plan.serve.replica_stall_probability = 1.0;
  plan.serve.replica_stall_seconds = 60.0;
  return plan;
}

/// A 1-replica fabric whose feather replica blows every deadline, so its
/// breaker trips and stays open under continued failures; every 32nd
/// diverted pick still goes through as a recovery probe. Every replica
/// runs one service config, so the breaker is on in all of them; only
/// feather#0 fails, through `injector`'s SickFeatherPlan stalls against a
/// 5 s deadline. The injector must outlive the fabric.
FabricConfig SickFeatherConfig(fault::FaultInjector* injector) {
  serve::ServiceConfig service = PlainConfig();
  service.queue_deadline_seconds = 5.0;
  service.breaker.enabled = true;
  service.breaker.window = 8;
  service.breaker.min_samples = 4;
  service.breaker.trip_ratio = 0.5;
  service.breaker.open_requests = 64;
  FabricConfig config = MakePerPoolFabricConfig(1, service);
  config.faults = injector;
  return config;
}

TEST(FabricTest, OpenBreakerDivertsButProbesForRecovery) {
  const TrainedFixture& f = F();
  fault::FaultInjector injector(SickFeatherPlan());
  Fabric fabric(SickFeatherConfig(&injector), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);
  const size_t kSubmits = 60;
  size_t absorbed_clean = 0, feather_answers = 0;
  for (size_t i = 0; i < kSubmits; ++i) {
    const serve::ServeResponse resp = fabric.Submit({feather, 100.0}).get();
    if (resp.shard == "one-model#0" && !resp.degraded()) {
      ++absorbed_clean;
      ExpectBitIdentical(resp.prediction, f.ts.base().Predict(feather));
    }
    if (resp.shard == "feather#0") {
      ++feather_answers;
      // Anything the sick replica still answers is labeled, never silent.
      EXPECT_TRUE(!resp.degraded() || resp.degraded_reason == "deadline" ||
                  resp.degraded_reason == "circuit-open")
          << resp.degraded_reason;
    }
  }
  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_GE(fabric.service("feather", 0)->breaker().trips(), 1u);
  EXPECT_GT(stats.escalations_open, 0u);
  // Diverted traffic is served cleanly by the catch-all...
  EXPECT_EQ(absorbed_clean, stats.escalations_open);
  // ...while every 32nd diverted pick still reaches the expert so
  // its breaker can walk the half-open recovery path.
  EXPECT_GT(feather_answers, 0u);
  EXPECT_EQ(feather_answers + stats.escalations_open, kSubmits);
}

// Every escalation rung must move exactly its own qpp_fabric_* counters
// in the fabric's metrics registry — the stats snapshot reads the same
// counters, but the registered names + labels are the monitoring
// contract, so assert them by name — and record one flight event per
// escalation. One table row per rung: dead -> circuit-open (including the
// every-Nth recovery-probe path) -> overloaded -> catch-all absorption ->
// inline fallback.
TEST(FabricTest, EveryEscalationRungMovesItsLabeledCounters) {
  const TrainedFixture& f = F();
  const linalg::Vector feather = f.probe(QueryType::kFeather, 0);

  struct RungCase {
    const char* rung;   // which rung the row forces for feather traffic
    size_t submits;     // identical feather requests driven through
    bool sick;          // use SickFeatherConfig (breaker trips)
    void (*induce)(Fabric&);  // put the fabric in the rung's state
    uint64_t dead, overloaded, exhausted;  // exact counter expectations
    bool open_positive;  // expect escalations{circuit-open} > 0 instead
    int32_t code;  // the escalation events' reason: 0 dead, 1 open, 2 over
  };
  const RungCase kCases[] = {
      {"dead", 1, false,
       [](Fabric& fab) { fab.registry("feather", 0)->Unpublish(); },
       /*dead=*/1, /*overloaded=*/0, /*exhausted=*/0, false, /*code=*/0},
      {"circuit-open", 60, true, [](Fabric&) {},
       /*dead=*/0, /*overloaded=*/0, /*exhausted=*/0, true, /*code=*/1},
      {"overloaded", 1, false,
       [](Fabric& fab) { fab.service("feather", 0)->Shutdown(); },
       /*dead=*/0, /*overloaded=*/1, /*exhausted=*/0, false, /*code=*/2},
      // Bottom of the ladder: feather refuses (overloaded rung), the
      // catch-all refuses too, and the fabric answers inline.
      {"fabric-exhausted", 1, false, [](Fabric& fab) { fab.Shutdown(); },
       /*dead=*/0, /*overloaded=*/1, /*exhausted=*/1, false, /*code=*/2},
  };

  for (const RungCase& c : kCases) {
    SCOPED_TRACE(c.rung);
    fault::FaultInjector injector(SickFeatherPlan());
    Fabric fabric(c.sick ? SickFeatherConfig(&injector) : TestConfig(1),
                  TestCalibration());
    PublishTwoStep(f.ts, &fabric);
    c.induce(fabric);
    for (size_t i = 0; i < c.submits; ++i) {
      fabric.Submit({feather, 100.0}).get();
    }

    obs::MetricsRegistry* m = fabric.metrics();
    const auto counter = [m](const std::string& name,
                             obs::Labels labels = {}) {
      return m->GetCounter(name, std::move(labels))->value();
    };
    const obs::Labels kFeather = {{"group", "feather"}};
    const obs::Labels kCatchAll = {{"group", "one-model"}};

    // Step-1 accounting: one real classification, every identical repeat
    // a route-cache hit.
    EXPECT_EQ(counter("qpp_fabric_classified_total"), 1u);
    EXPECT_EQ(counter("qpp_fabric_route_cache_hits_total"), c.submits - 1);

    const uint64_t open = counter(
        "qpp_fabric_escalations_total",
        {{"group", "feather"}, {"reason", "circuit-open"}});
    EXPECT_EQ(counter("qpp_fabric_escalations_total",
                      {{"group", "feather"}, {"reason", "dead"}}),
              c.dead);
    EXPECT_EQ(counter("qpp_fabric_escalations_total",
                      {{"group", "feather"}, {"reason", "overloaded"}}),
              c.overloaded);
    EXPECT_EQ(counter("qpp_fabric_fallback_exhausted_total"), c.exhausted);

    const uint64_t escalations = c.dead + c.overloaded + open;
    const uint64_t feather_routed =
        counter("qpp_fabric_requests_total", kFeather);
    if (c.open_positive) {
      // The breaker trips after its min_samples deadline blowups, then
      // diverts — but every 32nd diverted pick still probes the
      // expert, so routed traffic lands strictly between 0 and all.
      EXPECT_GT(open, 0u);
      EXPECT_GT(feather_routed, 0u);
      EXPECT_LT(feather_routed, c.submits);
      EXPECT_EQ(feather_routed + open, c.submits);
    } else {
      EXPECT_EQ(open, 0u);
      EXPECT_EQ(feather_routed, 0u);
    }
    // Escalated requests are absorbed by the catch-all (even at the
    // exhausted rung, where absorption is counted before its refusal),
    // and absorption is never first-choice routing.
    EXPECT_EQ(counter("qpp_fabric_absorbed_total", kCatchAll), escalations);
    EXPECT_EQ(counter("qpp_fabric_requests_total", kCatchAll), 0u);

    // The flight recorder holds one event per escalation, whole: the
    // group as the detail and the reason as the code.
    uint64_t events = 0;
    for (const obs::FlightEvent& e : fabric.flight()->Snapshot()) {
      if (e.kind != obs::FlightEventKind::kEscalation) continue;
      ++events;
      EXPECT_EQ(e.detail, "feather");
      EXPECT_EQ(e.code, c.code);
    }
    EXPECT_EQ(events, escalations);
  }
}

// ----------------------------------------------------------- concurrency --

TEST(FabricTest, ConcurrentMixedTrafficStaysBitIdentical) {
  const TrainedFixture& f = F();
  serve::ServiceConfig service;
  service.num_workers = 2;
  service.max_batch = 8;
  service.cache_capacity = 64;  // exercise the result cache too
  service.fallback_on_anomalous = false;
  Fabric fabric(MakePerPoolFabricConfig(2, service), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  const size_t kProbes = 12;
  std::vector<linalg::Vector> probes;
  std::vector<core::Prediction> expected;
  for (size_t j = 0; j < kProbes; ++j) {
    probes.push_back(f.probe(static_cast<QueryType>(j % 4), j / 4));
    expected.push_back(f.ts.Predict(probes.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 40; ++r) {
        const size_t which = (static_cast<size_t>(c) * 7 + r) % kProbes;
        const serve::ServeResponse resp =
            fabric.Submit({probes[which], 100.0}).get();
        if (resp.degraded() ||
            resp.prediction.metrics.ToVector() !=
                expected[which].metrics.ToVector() ||
            resp.prediction.neighbor_indices !=
                expected[which].neighbor_indices ||
            resp.prediction.confidence != expected[which].confidence) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(stats.escalations(), 0u);
  uint64_t served = 0;
  for (const auto& g : stats.groups) {
    for (const auto& r : g.replicas) served += r.service.requests;
  }
  EXPECT_EQ(served, 160u);
  EXPECT_EQ(stats.classified + stats.route_cache_hits, 160u);
}

// ------------------------------------------------------- observability --

TEST(FabricTest, QppFabricMetricsMirrorTheStatsSnapshot) {
  const TrainedFixture& f = F();
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.admission()->SetVirtualLoad(kOverload);
  fabric.Submit({f.probe(QueryType::kWreckingBall, 0), 400.0}).get();  // shed
  fabric.admission()->SetVirtualLoad(kCalm);
  fabric.Submit({f.probe(QueryType::kFeather, 0), 100.0}).get();
  fabric.Submit({f.probe(QueryType::kFeather, 0), 100.0}).get();  // cache hit

  obs::MetricsRegistry* m = fabric.metrics();
  const FabricStatsSnapshot stats = fabric.stats();
  EXPECT_EQ(m->GetCounter("qpp_fabric_classified_total")->value(),
            stats.classified);
  EXPECT_EQ(m->GetCounter("qpp_fabric_route_cache_hits_total")->value(),
            stats.route_cache_hits);
  EXPECT_EQ(m->GetCounter("qpp_fabric_admitted_total")->value(),
            stats.admitted);
  EXPECT_EQ(m->GetCounter("qpp_fabric_slo_breach_total")->value(),
            stats.slo_breaches);
  // Shed counters carry the pool label; only the wrecking one moved.
  EXPECT_EQ(m->GetCounter("qpp_fabric_shed_total",
                          {{"pool", "wrecking ball"}})
                ->value(),
            1u);
  EXPECT_EQ(m->GetCounter("qpp_fabric_shed_total", {{"pool", "feather"}})
                ->value(),
            0u);
  // Group-routed and per-replica picks add up across labeled series.
  uint64_t picks = 0;
  for (const auto& g : fabric.stats().groups) {
    for (size_t i = 0; i < g.replicas.size(); ++i) {
      picks += m->GetCounter("qpp_fabric_replica_picks_total",
                             {{"group", g.name},
                              {"replica", std::to_string(i)}})
                   ->value();
    }
  }
  EXPECT_EQ(picks, stats.admitted);
  EXPECT_EQ(m->GetCounter("qpp_fabric_requests_total",
                          {{"group", "feather"}})
                ->value(),
            2u);
}

TEST(FabricTest, LifecycleEventsAreTracedUnderTheFabricCategory) {
  const TrainedFixture& f = F();
  obs::TraceRecorder trace;
  FabricConfig config = TestConfig();
  config.admission = TestAdmission();
  config.trace = &trace;
  Fabric fabric(std::move(config), TestCalibration());
  PublishTwoStep(f.ts, &fabric);

  fabric.Submit({f.probe(QueryType::kFeather, 0), 100.0}).get();
  fabric.admission()->SetVirtualLoad(kOverload);
  fabric.Submit({f.probe(QueryType::kWreckingBall, 0), 400.0}).get();
  fabric.Submit({f.probe(QueryType::kBowlingBall, 0), 100.0});  // defer
  fabric.admission()->SetVirtualLoad(kCalm);
  for (size_t i = 0; i < 3; ++i) {
    fabric.SetReplicaHealth("feather", i, ReplicaHealth::kDead);
  }
  fabric.Submit({f.probe(QueryType::kFeather, 0), 100.0}).get();  // escalate
  fabric.Shutdown();

  bool saw_classify = false, saw_shed = false, saw_defer = false;
  bool saw_health = false, saw_escalate = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.category != "fabric") continue;
    if (e.name == "classify" && e.phase == 'X') saw_classify = true;
    if (e.name == "admission-shed") saw_shed = true;
    if (e.name == "defer") saw_defer = true;
    if (e.name == "health") saw_health = true;
    if (e.name == "escalate") {
      saw_escalate = true;
      for (const auto& [key, value] : e.args) {
        if (key == "group") {
          EXPECT_EQ(value, "\"feather:dead\"");
        }
      }
    }
  }
  EXPECT_TRUE(saw_classify);
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_defer);
  EXPECT_TRUE(saw_health);
  EXPECT_TRUE(saw_escalate);
}

TEST(FabricTest, StatsToStringMentionsEveryGroupAndReplica) {
  Fabric fabric(TestConfig(2), TestCalibration());
  const std::string rendered = fabric.stats().ToString();
  for (const char* needle :
       {"feather", "golf ball#1", "bowling ball#0", "wrecking ball",
        "one-model*", "one-model#1"}) {
    EXPECT_NE(rendered.find(needle), std::string::npos) << rendered;
  }
}

}  // namespace
}  // namespace qpp::fabric
