// InventoryService: determinism across worker counts and standalone replay,
// admission control, deadline enforcement, graceful overload, drain.
#include "service/inventory_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <vector>

#include "common/require.hpp"
#include "service/census.hpp"

namespace {

using rfid::anticollision::AggregateResult;
using rfid::anticollision::ProtocolKind;
using rfid::anticollision::SchemeKind;
using rfid::service::CensusOutcome;
using rfid::service::CensusRequest;
using rfid::service::CensusResponse;
using rfid::service::InventoryService;
using rfid::service::ServiceConfig;
using rfid::service::censusStreamSeed;
using rfid::service::runStandalone;

CensusRequest smallRequest(std::uint64_t clientSeed = 0) {
  CensusRequest req;
  req.protocol = ProtocolKind::kFsa;
  req.scheme = SchemeKind::kQcd;
  req.tagCount = 30;
  req.frameSize = 32;
  req.rounds = 2;
  req.seed = clientSeed;
  return req;
}

/// Bit-identical comparison of the sample vectors that define a census.
void expectIdenticalResults(const AggregateResult& a,
                            const AggregateResult& b) {
  ASSERT_EQ(a.totalSlots.count(), b.totalSlots.count());
  EXPECT_EQ(a.totalSlots.samples(), b.totalSlots.samples());
  EXPECT_EQ(a.idleSlots.samples(), b.idleSlots.samples());
  EXPECT_EQ(a.singleSlots.samples(), b.singleSlots.samples());
  EXPECT_EQ(a.collidedSlots.samples(), b.collidedSlots.samples());
  EXPECT_EQ(a.airtimeMicros.samples(), b.airtimeMicros.samples());
  EXPECT_EQ(a.throughput.samples(), b.throughput.samples());
  EXPECT_EQ(a.meanDelayMicros.samples(), b.meanDelayMicros.samples());
  EXPECT_EQ(a.completedRounds, b.completedRounds);
}

TEST(InventoryService, CompletesARequest) {
  InventoryService service(ServiceConfig{.seed = 7});
  auto future = service.submit(smallRequest());
  const CensusResponse response = future.get();
  EXPECT_EQ(response.outcome, CensusOutcome::kCompleted);
  EXPECT_EQ(response.requestId, 0u);
  EXPECT_GT(response.result.totalSlots.count(), 0u);
  EXPECT_GE(response.queueWaitMicros, 0.0);
  EXPECT_GT(response.serviceMicros, 0.0);

  const auto counters = service.counters();
  EXPECT_EQ(counters.submitted, 1u);
  EXPECT_EQ(counters.accepted, 1u);
}

TEST(InventoryService, DeterministicAcrossWorkerCountsAndStandalone) {
  constexpr std::uint64_t kServiceSeed = 20100913;
  constexpr std::size_t kRequests = 8;

  auto runThrough = [&](unsigned shards, unsigned workersPerShard) {
    ServiceConfig cfg;
    cfg.shards = shards;
    cfg.workersPerShard = workersPerShard;
    cfg.queueCapacity = kRequests;
    cfg.seed = kServiceSeed;
    InventoryService service(cfg);
    std::vector<std::future<CensusResponse>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(service.submit(smallRequest(/*clientSeed=*/i)));
    }
    std::vector<CensusResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  };

  const auto serial = runThrough(1, 1);
  const auto sharded = runThrough(2, 2);
  ASSERT_EQ(serial.size(), kRequests);
  ASSERT_EQ(sharded.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(serial[i].outcome, CensusOutcome::kCompleted);
    EXPECT_EQ(sharded[i].outcome, CensusOutcome::kCompleted);
    EXPECT_EQ(serial[i].requestId, i);
    EXPECT_EQ(sharded[i].requestId, i);
    EXPECT_EQ(serial[i].streamSeed, sharded[i].streamSeed);
    expectIdenticalResults(serial[i].result, sharded[i].result);

    // Replay in isolation: same stream derivation, bit-identical census.
    const CensusResponse replay =
        runStandalone(smallRequest(/*clientSeed=*/i), kServiceSeed, i);
    EXPECT_EQ(replay.streamSeed, serial[i].streamSeed);
    expectIdenticalResults(replay.result, serial[i].result);
  }
}

TEST(InventoryService, StreamSeedsDifferAcrossRequestsAndClients) {
  EXPECT_NE(censusStreamSeed(1, 0, 0), censusStreamSeed(1, 1, 0));
  EXPECT_NE(censusStreamSeed(1, 0, 0), censusStreamSeed(2, 0, 0));
  EXPECT_NE(censusStreamSeed(1, 0, 0), censusStreamSeed(1, 0, 5));
  // Client seed is XOR-folded after stream derivation, so it is exactly
  // recoverable — replay needs only (serviceSeed, requestId, clientSeed).
  EXPECT_EQ(censusStreamSeed(1, 3, 9) ^ 9, censusStreamSeed(1, 3, 0));
}

TEST(InventoryService, RejectsWhenQueueFull) {
  // One worker, capacity 1: while the worker is pinned on a slow request a
  // burst can land at most one queued request; the rest are shed at
  // admission. (Without the pin, a 1-core scheduler can drain the queue
  // between submits and the burst never observes a full queue.)
  ServiceConfig cfg;
  cfg.queueCapacity = 1;
  cfg.seed = 3;
  InventoryService service(cfg);

  CensusRequest slow = smallRequest();
  slow.tagCount = 400;
  slow.rounds = 4;
  auto slowFuture = service.submit(slow);

  std::vector<std::future<CensusResponse>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.submit(smallRequest()));
  }
  std::size_t completed = 0, queueFull = 0;
  for (auto& f : futures) {
    const CensusResponse r = f.get();
    if (r.outcome == CensusOutcome::kCompleted) ++completed;
    if (r.outcome == CensusOutcome::kRejectedQueueFull) ++queueFull;
  }
  EXPECT_EQ(slowFuture.get().outcome, CensusOutcome::kCompleted);
  // The queue holds either the slow request (not yet dequeued) or at most
  // one burst request, so at least 11 of the 12 must be shed.
  EXPECT_GE(queueFull, 11u);
  EXPECT_EQ(completed + queueFull, 12u);

  const auto counters = service.counters();
  EXPECT_EQ(counters.rejectedQueueFull, queueFull);
  EXPECT_LE(counters.maxQueueDepth, cfg.queueCapacity);
}

TEST(InventoryService, ExpiredDeadlineIsRejectedOnDequeueWithoutRunning) {
  ServiceConfig cfg;
  cfg.queueCapacity = 4;
  cfg.seed = 5;
  InventoryService service(cfg);

  // Occupy the single worker with a slow request, then queue one whose
  // deadline expires while it waits.
  CensusRequest slow = smallRequest();
  slow.tagCount = 400;
  slow.rounds = 4;
  auto slowFuture = service.submit(slow);

  CensusRequest doomed = smallRequest();
  doomed.deadlineMicros = 1.0;  // expires essentially immediately
  auto doomedFuture = service.submit(doomed);

  EXPECT_EQ(slowFuture.get().outcome, CensusOutcome::kCompleted);
  const CensusResponse rejected = doomedFuture.get();
  EXPECT_EQ(rejected.outcome, CensusOutcome::kRejectedDeadlineExceeded);
  EXPECT_DOUBLE_EQ(rejected.serviceMicros, 0.0);  // no worker time burned
  // Futures resolve before the finished bookkeeping ticks, so counters are
  // only guaranteed final after drain().
  service.drain();
  EXPECT_EQ(service.counters().rejectedDeadline, 1u);
}

TEST(InventoryService, OverloadIsGraceful) {
  // Tiny queue, single worker, 4x-ish overload burst: the queue must stay
  // bounded and accepted-request latency must stay bounded by queue depth ×
  // service time, not grow with the burst size.
  ServiceConfig cfg;
  cfg.queueCapacity = 2;
  cfg.seed = 11;
  InventoryService service(cfg);

  std::vector<std::future<CensusResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service.submit(smallRequest(std::uint64_t(i))));
  }
  double maxServiceMicros = 0.0;
  double maxQueueWaitMicros = 0.0;
  std::size_t completed = 0, rejected = 0;
  for (auto& f : futures) {
    const CensusResponse r = f.get();
    if (r.outcome == CensusOutcome::kCompleted) {
      ++completed;
      maxServiceMicros = std::max(maxServiceMicros, r.serviceMicros);
      maxQueueWaitMicros = std::max(maxQueueWaitMicros, r.queueWaitMicros);
    } else {
      ++rejected;
      EXPECT_EQ(r.outcome, CensusOutcome::kRejectedQueueFull);
    }
  }
  EXPECT_GT(rejected, 0u);  // overload sheds instead of queueing
  EXPECT_GT(completed, 0u);
  EXPECT_LE(service.counters().maxQueueDepth, cfg.queueCapacity);

  // An accepted request waits behind at most queueCapacity queued + one
  // in-flight request; generous 4x slack absorbs scheduler noise.
  const double bound =
      (static_cast<double>(cfg.queueCapacity) + 1.0) * maxServiceMicros * 4.0 +
      5000.0;
  EXPECT_LE(maxQueueWaitMicros, bound);
}

TEST(InventoryService, MaxQueueDepthNeverExceedsCapacity) {
  // A worker pops a job some time before it starts the census. A submit
  // landing in between refills the freed slot, and the depth high-water
  // mark must still read the queues, not accepted minus started requests.
  // One-tag censuses keep the worker popping, so that window is hit often.
  CensusRequest tiny = smallRequest();
  tiny.tagCount = 1;
  tiny.frameSize = 1;
  tiny.rounds = 1;
  for (int trial = 0; trial < 5; ++trial) {
    ServiceConfig cfg;
    cfg.queueCapacity = 1;
    cfg.seed = 17;
    InventoryService service(cfg);
    for (int i = 0; i < 20000; ++i) {
      // Only the counters matter; a dropped future does not block.
      (void)service.submit(tiny);
    }
    service.close();
    service.drain();
    EXPECT_LE(service.counters().maxQueueDepth, cfg.queueCapacity)
        << "trial " << trial;
  }
}

TEST(InventoryService, CloseRejectsNewSubmitsAndDrainCompletes) {
  ServiceConfig cfg;
  cfg.queueCapacity = 8;
  cfg.seed = 13;
  InventoryService service(cfg);
  std::vector<std::future<CensusResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(smallRequest()));
  }
  service.close();
  auto late = service.submit(smallRequest());
  EXPECT_EQ(late.get().outcome, CensusOutcome::kRejectedShutdown);

  service.drain();
  // After drain, everything accepted has resolved.
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().outcome, CensusOutcome::kCompleted);
  }
  const auto counters = service.counters();
  EXPECT_EQ(counters.completed, 4u);
  EXPECT_EQ(counters.rejectedShutdown, 1u);
  EXPECT_EQ(service.queueDepth(), 0u);
}

TEST(InventoryService, DestructorResolvesAllAcceptedRequests) {
  std::vector<std::future<CensusResponse>> futures;
  {
    ServiceConfig cfg;
    cfg.queueCapacity = 16;
    cfg.seed = 17;
    InventoryService service(cfg);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(smallRequest()));
    }
  }  // destructor: close + run queued work to completion + join
  for (auto& f : futures) {
    EXPECT_EQ(f.get().outcome, CensusOutcome::kCompleted);
  }
}

TEST(InventoryService, RegistryReceivesServiceInstruments) {
  rfid::common::MetricsRegistry registry;
  {
    ServiceConfig cfg;
    cfg.queueCapacity = 1;
    cfg.seed = 19;
    cfg.registry = &registry;
    InventoryService service(cfg);
    std::vector<std::future<CensusResponse>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.submit(smallRequest()));
    }
    for (auto& f : futures) (void)f.get();
    service.close();
    service.drain();

    const auto counters = service.counters();
    EXPECT_EQ(registry.counter("service.accepted").value(), counters.accepted);
    EXPECT_EQ(registry.counter("service.completed").value(),
              counters.completed);
    EXPECT_EQ(registry.counter("service.rejected_queue_full").value(),
              counters.rejectedQueueFull);
    EXPECT_EQ(
        registry.histogram("service.service_time_us", {}).total(),
        counters.completed);
    EXPECT_EQ(registry.histogram("service.queue_wait_us", {}).total(),
              counters.completed + counters.rejectedDeadline);
    EXPECT_DOUBLE_EQ(registry.gauge("service.queue_depth").value(), 0.0);

    const auto latency = service.latencySnapshot();
    EXPECT_EQ(latency.serviceMicros.count(), counters.completed);
    EXPECT_GE(latency.serviceMicros.percentile(99.0),
              latency.serviceMicros.percentile(50.0));
  }
}

TEST(InventoryService, InvalidRequestsAreRefusedAtSubmit) {
  InventoryService service(ServiceConfig{});
  CensusRequest zeroRounds = smallRequest();
  zeroRounds.rounds = 0;
  EXPECT_ANY_THROW((void)service.submit(zeroRounds));
  CensusRequest negativeDeadline = smallRequest();
  negativeDeadline.deadlineMicros = -1.0;
  EXPECT_ANY_THROW((void)service.submit(negativeDeadline));
}

TEST(InventoryService, ThrowingCensusCountsAsFailedNotCompleted) {
  // submit() does not check frameSize, so an FSA request with a zero frame
  // is accepted and throws in the worker. It finishes (drain returns) as a
  // failure: no completion, no service-time sample.
  rfid::common::MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.seed = 23;
  cfg.registry = &registry;
  InventoryService service(cfg);
  CensusRequest zeroFrame = smallRequest();
  zeroFrame.frameSize = 0;
  auto failing = service.submit(zeroFrame);
  auto passing = service.submit(smallRequest());
  EXPECT_THROW((void)failing.get(), rfid::common::PreconditionError);
  EXPECT_EQ(passing.get().outcome, CensusOutcome::kCompleted);
  service.close();
  service.drain();

  const auto counters = service.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.failed, 1u);
  EXPECT_EQ(registry.counter("service.completed").value(), 1u);
  EXPECT_EQ(registry.counter("service.failed").value(), 1u);
  const auto latency = service.latencySnapshot();
  EXPECT_EQ(latency.serviceMicros.count(), 1u);
  EXPECT_GT(latency.serviceMicros.percentile(0.0), 0.0);
  EXPECT_EQ(registry.histogram("service.service_time_us", {}).total(), 1u);
  EXPECT_EQ(latency.queueWaitMicros.count(), 2u);
}

}  // namespace
