// Long-running inventory census service: bounded request queues, a sharded
// worker pool, admission control, deadlines, and graceful drain.
//
// Architecture (DESIGN.md §5c):
//   submit() ── route by requestId % shards ──▶ BoundedQueue[shard]
//                                                    │ pop
//                                              worker (pinned to shard)
//                                                    │ deadline check
//                                              runExperiment (serial rounds)
//                                                    │
//                                              promise → client future
//
// * Admission control: a full shard queue rejects at submit
//   (kRejectedQueueFull) — the queue never grows past its capacity, so at
//   2× offered load the service sheds work instead of building latency.
// * Deadlines: a request that expires while queued is rejected on dequeue
//   (kRejectedDeadlineExceeded) without burning a worker; a request already
//   in flight runs to completion.
// * Determinism: the census consumes only censusStreamSeed(serviceSeed,
//   requestId, clientSeed) (see census.hpp), so results are bit-identical
//   across shard/worker counts and replayable via runStandalone().
// * Shutdown: close() refuses new work, already-queued requests run to
//   completion, drain() blocks until every accepted request has resolved;
//   the destructor does close() + join.
//
// Observability: pass a MetricsRegistry to receive service.* counters
// (accepted/completed/rejections), the service.queue_depth gauge, and
// queue-wait / service-time histograms. Instrument updates are serialized
// by an internal mutex (the registry's record path itself is
// single-threaded by design); read the registry only when the service is
// drained or destroyed. Latency percentiles come from latencySnapshot().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/registry.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "service/bounded_queue.hpp"
#include "service/census.hpp"

namespace rfid::service {

struct ServiceConfig {
  /// Independent queue + worker groups; requests route by requestId %
  /// shards, so shards never contend on one queue mutex.
  unsigned shards = 1;
  unsigned workersPerShard = 1;
  /// Per-shard queue capacity (admission-control bound).
  std::size_t queueCapacity = 64;
  /// Service seed: request k consumes Rng::forStream(seed, k).
  std::uint64_t seed = 0;
  /// Optional observability sink (not owned; must outlive the service).
  common::MetricsRegistry* registry = nullptr;
};

/// Monotonic service counters (one snapshot is internally consistent).
struct ServiceCounters {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejectedQueueFull = 0;
  std::uint64_t rejectedDeadline = 0;
  std::uint64_t rejectedShutdown = 0;
  /// High-water mark of the total queued depth; bounded by
  /// shards × queueCapacity by construction.
  std::uint64_t maxQueueDepth = 0;

  std::uint64_t rejected() const noexcept {
    return rejectedQueueFull + rejectedDeadline + rejectedShutdown;
  }
};

/// Queue-wait and service-time samples of finished requests (microseconds).
struct LatencySnapshot {
  common::SampleSet queueWaitMicros;
  common::SampleSet serviceMicros;
};

class InventoryService {
 public:
  explicit InventoryService(ServiceConfig config);
  /// close() + runs every already-accepted request to completion + joins.
  ~InventoryService();

  InventoryService(const InventoryService&) = delete;
  InventoryService& operator=(const InventoryService&) = delete;

  /// Submits one census request. Always returns a future that resolves:
  /// immediately with a rejection when admission fails, otherwise when a
  /// worker finishes the request. Never blocks on queue space.
  std::future<CensusResponse> submit(const CensusRequest& request);

  /// Stops admission (later submits resolve kRejectedShutdown). Idempotent.
  void close();
  /// Blocks until every accepted request has resolved. Does not stop
  /// admission, so callers wanting quiescence call close() first.
  void drain();

  /// A request's future resolves before its finished-side bookkeeping
  /// ticks, so completed/rejectedDeadline are only guaranteed to reflect a
  /// resolved future after drain(). Submit-side counters (submitted,
  /// accepted, rejectedQueueFull, rejectedShutdown, maxQueueDepth) are
  /// final as soon as submit() returns.
  ServiceCounters counters() const;
  LatencySnapshot latencySnapshot() const;
  /// Instantaneous total queued depth across shards.
  std::size_t queueDepth() const;

  unsigned shardCount() const noexcept { return config_.shards; }
  unsigned workerCount() const noexcept {
    return config_.shards * config_.workersPerShard;
  }
  std::size_t queueCapacityPerShard() const noexcept {
    return config_.queueCapacity;
  }
  std::uint64_t seed() const noexcept { return config_.seed; }

 private:
  struct Job {
    CensusRequest request;
    std::uint64_t requestId = 0;
    std::chrono::steady_clock::time_point enqueued;
    /// enqueued + deadlineMicros; only meaningful when hasDeadline.
    std::chrono::steady_clock::time_point deadline;
    bool hasDeadline = false;
    std::promise<CensusResponse> promise;
  };

  /// Sum of the shard queues' sizes. Called under mutex_, which every push
  /// holds, so the depth cannot grow while it is read.
  std::size_t queuedTotal() const;
  void shardLoop(std::size_t shard);
  void process(Job job);
  void noteFinished(CensusOutcome outcome, double queueWaitMicros,
                    double serviceMicros);

  ServiceConfig config_;
  // Queues are declared before the pool so the pool (whose workers read
  // the queues) is destroyed first.
  std::vector<std::unique_ptr<BoundedQueue<Job>>> queues_;

  mutable std::mutex mutex_;  ///< counters, latency samples, instruments
  std::condition_variable drainCv_;
  ServiceCounters counters_;
  LatencySnapshot latency_;
  std::uint64_t nextId_ = 0;
  std::uint64_t finished_ = 0;   ///< completed + rejectedDeadline
  bool closed_ = false;

  // Instruments resolved once at construction (null when no registry).
  common::Gauge* queueDepthGauge_ = nullptr;
  common::Counter* acceptedCounter_ = nullptr;
  common::Counter* completedCounter_ = nullptr;
  common::Counter* rejectedQueueFullCounter_ = nullptr;
  common::Counter* rejectedDeadlineCounter_ = nullptr;
  common::Histogram* queueWaitHist_ = nullptr;
  common::Histogram* serviceTimeHist_ = nullptr;

  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::future<void>> workerFutures_;
};

}  // namespace rfid::service
