// SubmitIngress — admission control (token buckets, QOS tiers, watermark
// backpressure, hard queue cap), drain ordering under racing producers,
// DrainInto batching, and the ingress metrics surface; plus the pieces this
// front door leans on: the sharded FairShareTracker (bitwise-equal factors
// at any bucket count), the configurable fair-share half-life plumbing, and
// the plugin decision cache's LRU bound.
//
// Labelled `tsan` in CMake: the multi-producer tests put the striped queue
// and the limiter tables under ThreadSanitizer in -DECO_SANITIZE=thread
// builds.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chronus/env.hpp"
#include "common/rng.hpp"
#include "common/telemetry/metrics.hpp"
#include "plugin/job_submit_eco.hpp"
#include "slurm/cluster.hpp"
#include "slurm/commands.hpp"
#include "slurm/ingress.hpp"
#include "slurm/job_desc.hpp"
#include "slurm/scheduler.hpp"

namespace eco::slurm {
namespace {

JobRequest MakeRequest(std::uint32_t user, const std::string& qos = "",
                       const std::string& account = "") {
  JobRequest request;
  request.name = "ing-" + std::to_string(user);
  request.user_id = user;
  request.num_tasks = 4;
  request.qos = qos;
  request.account = account;
  request.workload = WorkloadSpec::Fixed(10.0, 0.9);
  return request;
}

// ------------------------------------------------------- admission control

TEST(SubmitIngress, UserTokenBucketLimitsAndRefills) {
  IngressConfig config;
  config.qos[""] = QosRule{/*user_rate_per_s=*/1.0, /*user_burst=*/2.0};
  SubmitIngress ingress(std::move(config));

  // Burst of 2, then the bucket is dry.
  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
  const auto limited = ingress.Submit(MakeRequest(1), 0.0);
  EXPECT_EQ(limited.code, AdmitCode::kRateLimited);
  EXPECT_DOUBLE_EQ(limited.retry_after_s, 1.0);

  // Another user has their own bucket.
  EXPECT_TRUE(ingress.Submit(MakeRequest(2), 0.0).ok());

  // One second later one token has refilled — exactly one.
  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 1.0).ok());
  EXPECT_EQ(ingress.Submit(MakeRequest(1), 1.0).code,
            AdmitCode::kRateLimited);
  EXPECT_EQ(ingress.backlog(), 4u);
}

TEST(SubmitIngress, AccountLimitRefundsTheUserToken) {
  IngressConfig config;
  QosRule rule;
  rule.user_rate_per_s = 1.0;
  rule.user_burst = 2.0;
  rule.account_rate_per_s = 1e-6;  // refills a token every ~11.6 days
  rule.account_burst = 1.0;
  config.qos[""] = rule;
  SubmitIngress ingress(std::move(config));

  // First submit takes one user token and the only account token.
  EXPECT_TRUE(ingress.Submit(MakeRequest(7, "", "acct"), 0.0).ok());

  // The account now rejects — and must refund the user token it took, so
  // repeated account-limited submits report kAccountLimited, not
  // kRateLimited from a drained user bucket.
  for (int i = 0; i < 3; ++i) {
    const auto result = ingress.Submit(MakeRequest(7, "", "acct"), 0.0);
    EXPECT_EQ(result.code, AdmitCode::kAccountLimited) << "attempt " << i;
    EXPECT_GT(result.retry_after_s, 0.0);
  }

  // The refunded user budget is intact: the admitted submit consumed one of
  // the two user tokens, the account-limited attempts consumed none — so an
  // account-less submit (account bucket skipped) still has exactly one.
  EXPECT_TRUE(ingress.Submit(MakeRequest(7), 0.0).ok());
  EXPECT_EQ(ingress.Submit(MakeRequest(7), 0.0).code,
            AdmitCode::kRateLimited);
}

TEST(SubmitIngress, QosTiersResolveExactThenDefault) {
  IngressConfig config;
  QosRule disabled;
  disabled.enabled = false;
  config.qos["free"] = disabled;
  config.qos[""] = QosRule{/*user_rate_per_s=*/1.0, /*user_burst=*/1.0};
  SubmitIngress ingress(std::move(config));

  // Exact match: the disabled tier rejects outright.
  EXPECT_EQ(ingress.Submit(MakeRequest(1, "free"), 0.0).code,
            AdmitCode::kQosRejected);

  // Unknown tier falls back to the "" default rule (burst 1).
  EXPECT_TRUE(ingress.Submit(MakeRequest(1, "mystery"), 0.0).ok());
  EXPECT_EQ(ingress.Submit(MakeRequest(1, "mystery"), 0.0).code,
            AdmitCode::kRateLimited);

  // With no "" entry, unknown tiers are unlimited.
  IngressConfig open_config;
  open_config.qos["free"] = disabled;
  SubmitIngress open_door(std::move(open_config));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(open_door.Submit(MakeRequest(1, "mystery"), 0.0).ok());
  }
}

TEST(SubmitIngress, BackpressureShedsMarkedTiersUntilDrained) {
  IngressConfig config;
  config.high_watermark = 4;
  config.low_watermark = 2;
  QosRule besteffort;
  besteffort.shed_over_watermark = true;
  config.qos["besteffort"] = besteffort;
  SubmitIngress ingress(std::move(config));

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(ingress.Submit(MakeRequest(1), 0.0).backpressure);
  }
  // The 4th admitted request crosses the high watermark.
  const auto fourth = ingress.Submit(MakeRequest(1), 0.0);
  EXPECT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth.backpressure);
  EXPECT_TRUE(ingress.backpressure());

  // Shedding tiers are dropped; the default tier rides through.
  EXPECT_EQ(ingress.Submit(MakeRequest(2, "besteffort"), 0.0).code,
            AdmitCode::kShed);
  EXPECT_TRUE(ingress.Submit(MakeRequest(2), 0.0).ok());

  // Draining to (or below) the low watermark releases the flag.
  EXPECT_EQ(ingress.Drain().size(), 5u);
  EXPECT_FALSE(ingress.backpressure());
  EXPECT_TRUE(ingress.Submit(MakeRequest(2, "besteffort"), 0.0).ok());
}

TEST(SubmitIngress, QueueFullIsAHardCap) {
  IngressConfig config;
  config.max_queued = 3;
  SubmitIngress ingress(std::move(config));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
  }
  EXPECT_EQ(ingress.Submit(MakeRequest(1), 0.0).code, AdmitCode::kQueueFull);
  EXPECT_EQ(ingress.backlog(), 3u);

  EXPECT_EQ(ingress.Drain().size(), 3u);
  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
}

TEST(SubmitIngress, CloseRejectsNewWorkButStillDrains) {
  SubmitIngress ingress(IngressConfig{});
  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
  EXPECT_TRUE(ingress.Submit(MakeRequest(2), 0.0).ok());
  ingress.Close();
  EXPECT_TRUE(ingress.closed());
  EXPECT_EQ(ingress.Submit(MakeRequest(3), 0.0).code, AdmitCode::kClosed);
  EXPECT_EQ(ingress.Drain().size(), 2u);
}

// ---------------------------------------------------------- drain ordering

TEST(SubmitIngress, DrainOrdersCallerSeqsAcrossRacingProducers) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  IngressConfig config;
  config.stripes = 4;  // fewer stripes than producers: forced contention
  SubmitIngress ingress(std::move(config));

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ingress, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t seq =
            static_cast<std::uint64_t>(p) * kPerProducer + i;
        const auto result = ingress.Submit(
            MakeRequest(static_cast<std::uint32_t>(seq)), 0.0, seq);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result.seq, seq);
      }
    });
  }
  for (auto& t : producers) t.join();

  // The union of per-producer ranges is dense 0..3999: the O(n) placement
  // path must return exactly the stream order.
  const auto batch = ingress.Drain();
  ASSERT_EQ(batch.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].seq, i);
    ASSERT_EQ(batch[i].request.user_id, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(ingress.backlog(), 0u);
}

TEST(SubmitIngress, DrainSortsSparseSeqs) {
  // Even-only seqs defeat the dense fast path (hi - lo + 1 != total); the
  // stable-sort fallback must still produce ascending order.
  SubmitIngress ingress(IngressConfig{});
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&ingress, p] {
      for (int i = 0; i < 100; ++i) {
        const std::uint64_t seq = 2 * (p * 100 + i);
        ASSERT_TRUE(ingress.Submit(MakeRequest(1), 0.0, seq).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  const auto batch = ingress.Drain();
  ASSERT_EQ(batch.size(), 400u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].seq, 2 * i);
  }
}

TEST(SubmitIngress, AutoSeqPreservesArrivalOrder) {
  SubmitIngress ingress(IngressConfig{});
  for (int i = 0; i < 5; ++i) {
    auto request = MakeRequest(100);
    request.name = "auto-" + std::to_string(i);
    const auto result = ingress.Submit(std::move(request), 0.0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.seq, static_cast<std::uint64_t>(i));
  }
  const auto batch = ingress.Drain();
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].request.name, "auto-" + std::to_string(i));
  }
  // Rejections burn no sequence numbers: the stream stays dense.
  SubmitIngress capped([] {
    IngressConfig config;
    config.qos[""] = QosRule{/*user_rate_per_s=*/1.0, /*user_burst=*/1.0};
    return config;
  }());
  EXPECT_EQ(capped.Submit(MakeRequest(1), 0.0).seq, 0u);
  EXPECT_EQ(capped.Submit(MakeRequest(1), 0.0).code, AdmitCode::kRateLimited);
  EXPECT_EQ(capped.Submit(MakeRequest(2), 0.0).seq, 1u);
}

TEST(SubmitIngress, DrainIntoFeedsOneCoalescedBatch) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  cluster_config.defer_dispatch = true;
  ClusterSim cluster(cluster_config);

  IngressConfig config;
  config.metrics = &cluster.metrics();
  SubmitIngress ingress(std::move(config));
  for (int i = 0; i < 10; ++i) {
    auto request = MakeRequest(static_cast<std::uint32_t>(1000 + i));
    request.name = "batch-" + std::to_string(i);
    ASSERT_TRUE(
        ingress.Submit(std::move(request), 0.0, static_cast<std::uint64_t>(i))
            .ok());
  }
  const auto results = ingress.DrainInto(cluster);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const auto job = cluster.GetJob(*results[i]);
    ASSERT_TRUE(job.has_value());
    // Seq order == id order == name order: the cluster saw the stream.
    EXPECT_EQ(job->request.name, "batch-" + std::to_string(i));
  }
  cluster.RunUntilIdle();
  EXPECT_EQ(ingress.DrainInto(cluster).size(), 0u);

  // The ingress published into the cluster's registry, so sdiag grows an
  // "Ingress front door" section.
  const std::string diag = Sdiag(cluster);
  EXPECT_NE(diag.find("Ingress front door:"), std::string::npos);
  EXPECT_NE(diag.find("Submitted: 10  Admitted: 10  Drained: 10  Batches: 1"),
            std::string::npos)
      << diag;
}

// ----------------------------------------------------------------- metrics

TEST(SubmitIngress, PublishesCountersIntoTheProvidedRegistry) {
  telemetry::MetricsRegistry registry;
  IngressConfig config;
  config.metrics = &registry;
  config.max_queued = 2;
  config.qos[""] = QosRule{/*user_rate_per_s=*/1.0, /*user_burst=*/1.0};
  QosRule disabled;
  disabled.enabled = false;
  config.qos["off"] = disabled;
  SubmitIngress ingress(std::move(config));

  EXPECT_TRUE(ingress.Submit(MakeRequest(1), 0.0).ok());
  EXPECT_EQ(ingress.Submit(MakeRequest(1), 0.0).code,
            AdmitCode::kRateLimited);
  EXPECT_EQ(ingress.Submit(MakeRequest(2, "off"), 0.0).code,
            AdmitCode::kQosRejected);
  EXPECT_TRUE(ingress.Submit(MakeRequest(3), 0.0).ok());
  EXPECT_EQ(ingress.Submit(MakeRequest(4), 0.0).code, AdmitCode::kQueueFull);
  EXPECT_EQ(ingress.Drain().size(), 2u);

  const auto counter = [&registry](const char* name) {
    const telemetry::Counter* c = registry.FindCounter(name);
    return c != nullptr ? c->Value() : std::uint64_t{0};
  };
  const auto reason = [&counter](const char* r) {
    return counter(telemetry::LabeledName("eco_ingress_rejected_total",
                                          "reason", r)
                       .c_str());
  };
  EXPECT_EQ(counter("eco_ingress_submitted_total"), 5u);
  EXPECT_EQ(counter("eco_ingress_admitted_total"), 2u);
  EXPECT_EQ(reason("rate"), 1u);
  EXPECT_EQ(reason("qos"), 1u);
  EXPECT_EQ(reason("queue_full"), 1u);
  EXPECT_EQ(counter("eco_ingress_drained_total"), 2u);
  EXPECT_EQ(counter("eco_ingress_drain_batches_total"), 1u);
  const telemetry::Gauge* peak =
      registry.FindGauge("eco_ingress_backlog_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->Value(), 2.0);

  // A closed ingress lands in the family's "closed" slot.
  EXPECT_EQ(reason("closed"), 0u);
  ingress.Close();
  EXPECT_EQ(ingress.Submit(MakeRequest(5), 0.0).code, AdmitCode::kClosed);
  EXPECT_EQ(reason("closed"), 1u);
}

TEST(SubmitIngress, CloseRacesConcurrentProducersWithoutLosingAdmits) {
  // Producers hammer Submit while the main thread slams the door shut.
  // The invariant: every Submit that returned kOk is present in the final
  // drain (an OK reply is a durable admission), every other attempt shows
  // up as a closed-reject, and nothing crashes or leaks under tsan.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  telemetry::MetricsRegistry registry;
  IngressConfig config;
  config.metrics = &registry;
  SubmitIngress ingress(std::move(config));

  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> closed_rejects{0};
  std::atomic<int> started{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      started.fetch_add(1);
      for (int i = 0; i < kPerProducer; ++i) {
        const auto result =
            ingress.Submit(MakeRequest(static_cast<std::uint32_t>(p)), 0.0);
        if (result.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(result.code, AdmitCode::kClosed);
          closed_rejects.fetch_add(1, std::memory_order_relaxed);
          break;  // the door is shut; a real producer would stop too
        }
      }
    });
  }
  while (started.load() < kProducers) std::this_thread::yield();
  ingress.Close();
  for (auto& producer : producers) producer.join();

  EXPECT_TRUE(ingress.closed());
  const auto drained = ingress.Drain();
  EXPECT_EQ(drained.size(), admitted.load());
  EXPECT_EQ(ingress.backlog(), 0u);

  const telemetry::Counter* family = registry.FindCounter(
      telemetry::LabeledName("eco_ingress_rejected_total", "reason",
                             "closed"));
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->Value(), closed_rejects.load());
}

// ------------------------------------------------- sharded fair-share math

TEST(FairShareTracker, ShardedFactorsMatchSingleBucketBitwise) {
  // The user map is sharded for concurrency, but the decay math and the
  // global total are untouched: any bucket count must produce bitwise the
  // same factors as one bucket.
  FairShareTracker sharded(3600.0, 64);
  FairShareTracker flat(3600.0, 1);
  EXPECT_EQ(sharded.bucket_count(), 64u);
  EXPECT_EQ(flat.bucket_count(), 1u);

  Rng rng(20'260'808);
  SimTime clock = 0.0;
  std::vector<std::uint32_t> users;
  for (int i = 0; i < 500; ++i) {
    const auto user = static_cast<std::uint32_t>(rng.NextBounded(200));
    const double cpu_seconds = rng.Uniform(1.0, 5000.0);
    clock += rng.Uniform(0.0, 600.0);
    sharded.AddUsage(user, cpu_seconds, clock);
    flat.AddUsage(user, cpu_seconds, clock);
    users.push_back(user);
  }
  ASSERT_EQ(sharded.user_count(), flat.user_count());
  for (const std::uint32_t user : users) {
    EXPECT_EQ(sharded.Factor(user, clock + 100.0),
              flat.Factor(user, clock + 100.0))
        << "user " << user;
  }
  // Never-seen users agree too.
  EXPECT_EQ(sharded.Factor(9999, clock), flat.Factor(9999, clock));
}

TEST(FairShareTracker, BucketCountRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(FairShareTracker(3600.0, 48).bucket_count(), 64u);
  EXPECT_EQ(FairShareTracker(3600.0, 0).bucket_count(), 1u);
}

TEST(FairShareTracker, HalfLifeChangesTheDecay) {
  FairShareTracker fast(10.0, 4);   // usage halves every 10 s
  FairShareTracker slow(1e9, 4);    // effectively no decay
  fast.AddUsage(1, 1000.0, 0.0);
  slow.AddUsage(1, 1000.0, 0.0);
  fast.AddUsage(2, 1000.0, 0.0);
  slow.AddUsage(2, 1000.0, 0.0);
  // User 1 stops; user 2 keeps burning. Under fast decay user 1's history
  // evaporates (factor -> 1); with no decay it still counts.
  fast.AddUsage(2, 1000.0, 100.0);
  slow.AddUsage(2, 1000.0, 100.0);
  EXPECT_GT(fast.Factor(1, 100.0), slow.Factor(1, 100.0));
  EXPECT_GT(fast.Factor(1, 100.0), 0.99);
}

TEST(ClusterSim, FairshareHalfLifeIsPlumbedPerPartition) {
  ClusterConfig config;
  config.nodes = 4;
  config.fairshare_half_life_s = 3600.0;
  PartitionConfig batch;  // inherits the cluster default
  PartitionConfig debug;
  debug.name = "debug";
  debug.is_default = false;
  debug.fairshare_half_life_s = 60.0;  // per-partition override
  config.partitions = {batch, debug};
  ClusterSim cluster(config);
  EXPECT_DOUBLE_EQ(cluster.FairshareHalfLife("batch"), 3600.0);
  EXPECT_DOUBLE_EQ(cluster.FairshareHalfLife("debug"), 60.0);
  EXPECT_DOUBLE_EQ(cluster.FairshareHalfLife("nope"), 0.0);

  ClusterSim stock(ClusterConfig{});
  EXPECT_DOUBLE_EQ(stock.FairshareHalfLife("batch"),
                   FairShareTracker::kDefaultHalfLifeSeconds);
}

// ------------------------------------------------- plugin LRU decision cache

class DecisionCacheLruTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_capacity_ = plugin::EcoDecisionCacheCapacity();
    gateway_ = std::make_shared<chronus::ChronusGateway>();
    gateway_->system_hash = [] { return std::string("sys"); };
    gateway_->state = [] { return chronus::PluginState::kActive; };
    gateway_->slurm_config = [this](const std::string&, const std::string&) {
      ++lookups_;
      return Result<std::string>(
          R"({"cores": 8, "threads_per_core": 1, "frequency": 2200000})");
    };
    plugin::SetChronusGateway(gateway_);  // also clears the cache
    plugin::ResetEcoPluginStats();
  }
  void TearDown() override {
    plugin::SetChronusGateway(nullptr);
    plugin::SetEcoDecisionCacheCapacity(saved_capacity_);
  }

  static int Submit(const std::string& partition) {
    JobRequest request;
    request.num_tasks = 32;
    request.comment = "chronus";
    request.partition = partition;
    request.script = "srun ./app\n";
    JobDescWrapper wrapper(request, 1);
    char* err = nullptr;
    return plugin::EcoPluginOps()->job_submit(wrapper.desc(), 0, &err);
  }

  std::shared_ptr<chronus::ChronusGateway> gateway_;
  std::size_t saved_capacity_ = 0;
  int lookups_ = 0;
};

TEST_F(DecisionCacheLruTest, CapacityBoundsTheCacheAndCountsEvictions) {
  plugin::SetEcoDecisionCacheCapacity(8);
  EXPECT_EQ(plugin::EcoDecisionCacheCapacity(), 8u);
  for (int i = 0; i < 40; ++i) Submit("part-" + std::to_string(i));
  const std::size_t size = plugin::EcoDecisionCacheSize();
  EXPECT_LE(size, 8u);
  const auto stats = plugin::GetEcoPluginStats();
  EXPECT_EQ(stats.cache_evictions, 40u - size);
  EXPECT_EQ(stats.cache_misses, 40u);

  // The most recently inserted key must still be resident.
  const int before = lookups_;
  Submit("part-39");
  EXPECT_EQ(lookups_, before);
}

TEST_F(DecisionCacheLruTest, ShrinkingTheCapacityEvictsNow) {
  for (int i = 0; i < 20; ++i) Submit("part-" + std::to_string(i));
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 20u);
  plugin::SetEcoDecisionCacheCapacity(8);
  EXPECT_LE(plugin::EcoDecisionCacheSize(), 8u);
  EXPECT_GE(plugin::GetEcoPluginStats().cache_evictions, 12u);
}

TEST_F(DecisionCacheLruTest, RepeatHitsNeverEvict) {
  plugin::SetEcoDecisionCacheCapacity(8);
  Submit("batch");
  for (int i = 0; i < 100; ++i) Submit("batch");
  EXPECT_EQ(lookups_, 1);
  EXPECT_EQ(plugin::GetEcoPluginStats().cache_evictions, 0u);
  EXPECT_EQ(plugin::EcoDecisionCacheSize(), 1u);
}

}  // namespace
}  // namespace eco::slurm
