#include "service/inventory_service.hpp"

#include <algorithm>
#include <utility>

#include "common/require.hpp"

namespace rfid::service {

namespace {

using Clock = std::chrono::steady_clock;

double microsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Histogram bounds for queue-wait / service-time, microseconds: 100 µs …
/// 10 s in decade steps (overflow bucket catches the rest).
std::vector<double> latencyBoundsMicros() {
  return {1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
}

}  // namespace

anticollision::ExperimentConfig censusConfig(const CensusRequest& request,
                                             std::uint64_t streamSeed) {
  anticollision::ExperimentConfig cfg;
  cfg.protocol = request.protocol;
  cfg.scheme = request.scheme;
  cfg.qcdStrength = request.qcdStrength;
  cfg.tagCount = request.tagCount;
  cfg.frameSize = request.frameSize;
  cfg.rounds = request.rounds;
  cfg.seed = streamSeed;
  cfg.impairment = request.impairment;
  cfg.recovery = request.recovery;
  cfg.recoveryMaxPasses = request.recoveryMaxPasses;
  // Requests, not rounds, are the service's parallelism unit; serial rounds
  // also keep one request's work on one worker (no nested parallelism).
  cfg.threads = 1;
  return cfg;
}

CensusResponse runStandalone(const CensusRequest& request,
                             std::uint64_t serviceSeed,
                             std::uint64_t requestId) {
  CensusResponse response;
  response.outcome = CensusOutcome::kCompleted;
  response.requestId = requestId;
  response.streamSeed = censusStreamSeed(serviceSeed, requestId, request.seed);
  response.result =
      anticollision::runExperiment(censusConfig(request, response.streamSeed));
  return response;
}

InventoryService::InventoryService(ServiceConfig config)
    : config_(config) {
  RFID_REQUIRE(config_.shards >= 1, "service needs at least one shard");
  RFID_REQUIRE(config_.workersPerShard >= 1,
               "service needs at least one worker per shard");
  RFID_REQUIRE(config_.queueCapacity >= 1,
               "service queue capacity must be positive");
  if (config_.registry != nullptr) {
    common::MetricsRegistry& reg = *config_.registry;
    queueDepthGauge_ = &reg.gauge("service.queue_depth");
    acceptedCounter_ = &reg.counter("service.accepted");
    completedCounter_ = &reg.counter("service.completed");
    failedCounter_ = &reg.counter("service.failed");
    rejectedQueueFullCounter_ = &reg.counter("service.rejected_queue_full");
    rejectedDeadlineCounter_ = &reg.counter("service.rejected_deadline");
    queueWaitHist_ =
        &reg.histogram("service.queue_wait_us", latencyBoundsMicros());
    serviceTimeHist_ =
        &reg.histogram("service.service_time_us", latencyBoundsMicros());
  }
  queues_.reserve(config_.shards);
  for (unsigned s = 0; s < config_.shards; ++s) {
    queues_.push_back(
        std::make_unique<BoundedQueue<Job>>(config_.queueCapacity));
  }
  pool_ = std::make_unique<common::ThreadPool>(workerCount());
  workerFutures_.reserve(workerCount());
  for (unsigned w = 0; w < workerCount(); ++w) {
    const std::size_t shard = w % config_.shards;
    workerFutures_.push_back(pool_->submit([this, shard] { shardLoop(shard); }));
  }
}

InventoryService::~InventoryService() {
  close();
  // Closing the queues lets every worker drain remaining jobs and exit;
  // joining the pool (destruction) then waits for them, so all accepted
  // requests resolve before the service dies.
  for (std::future<void>& f : workerFutures_) {
    try {
      f.get();
    } catch (...) {
      // Worker loops catch per-request failures themselves; never let a
      // straggler exception escape a destructor.
    }
  }
  pool_.reset();
}

std::future<CensusResponse> InventoryService::submit(
    const CensusRequest& request) {
  RFID_REQUIRE(request.rounds >= 1, "census request needs at least one round");
  RFID_REQUIRE(request.tagCount >= 1, "census request needs at least one tag");
  RFID_REQUIRE(request.deadlineMicros >= 0.0,
               "census deadline must be non-negative");

  Job job;
  job.request = request;
  job.enqueued = Clock::now();
  if (request.deadlineMicros > 0.0) {
    job.hasDeadline = true;
    job.deadline =
        job.enqueued + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::micro>(
                               request.deadlineMicros));
  }
  std::future<CensusResponse> future = job.promise.get_future();

  std::lock_guard lock(mutex_);
  ++counters_.submitted;
  job.requestId = nextId_++;
  CensusResponse rejection;
  rejection.requestId = job.requestId;
  rejection.streamSeed =
      censusStreamSeed(config_.seed, job.requestId, request.seed);
  if (closed_) {
    ++counters_.rejectedShutdown;
    rejection.outcome = CensusOutcome::kRejectedShutdown;
    job.promise.set_value(std::move(rejection));
    return future;
  }
  BoundedQueue<Job>& queue = *queues_[job.requestId % config_.shards];
  std::promise<CensusResponse>& promise = job.promise;
  switch (queue.tryPush(std::move(job))) {
    case BoundedQueue<Job>::PushResult::kOk: {
      ++counters_.accepted;
      // Pushes happen only here, under mutex_, and workers only pop, so
      // this read never exceeds shards × queueCapacity.
      const std::size_t depth = queuedTotal();
      counters_.maxQueueDepth = std::max<std::uint64_t>(
          counters_.maxQueueDepth, depth);
      if (acceptedCounter_ != nullptr) acceptedCounter_->add();
      if (queueDepthGauge_ != nullptr) {
        queueDepthGauge_->set(static_cast<double>(depth));
      }
      break;
    }
    case BoundedQueue<Job>::PushResult::kFull:
      ++counters_.rejectedQueueFull;
      if (rejectedQueueFullCounter_ != nullptr) {
        rejectedQueueFullCounter_->add();
      }
      rejection.outcome = CensusOutcome::kRejectedQueueFull;
      promise.set_value(std::move(rejection));
      break;
    case BoundedQueue<Job>::PushResult::kClosed:
      ++counters_.rejectedShutdown;
      rejection.outcome = CensusOutcome::kRejectedShutdown;
      promise.set_value(std::move(rejection));
      break;
  }
  return future;
}

void InventoryService::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  for (auto& q : queues_) q->close();
}

void InventoryService::drain() {
  std::unique_lock lock(mutex_);
  drainCv_.wait(lock, [this] { return finished_ == counters_.accepted; });
}

ServiceCounters InventoryService::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

LatencySnapshot InventoryService::latencySnapshot() const {
  std::lock_guard lock(mutex_);
  return latency_;
}

std::size_t InventoryService::queueDepth() const {
  std::lock_guard lock(mutex_);
  return queuedTotal();
}

std::size_t InventoryService::queuedTotal() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->size();
  return depth;
}

void InventoryService::shardLoop(std::size_t shard) {
  BoundedQueue<Job>& queue = *queues_[shard];
  while (std::optional<Job> job = queue.pop()) {
    process(std::move(*job));
  }
}

void InventoryService::process(Job job) {
  const Clock::time_point dequeued = Clock::now();
  const double queueWaitMicros = microsBetween(job.enqueued, dequeued);
  if (queueDepthGauge_ != nullptr) {
    std::lock_guard lock(mutex_);
    queueDepthGauge_->set(static_cast<double>(queuedTotal()));
  }

  CensusResponse response;
  response.requestId = job.requestId;
  response.streamSeed =
      censusStreamSeed(config_.seed, job.requestId, job.request.seed);
  response.queueWaitMicros = queueWaitMicros;

  // The promise is always resolved BEFORE noteFinished marks the request
  // finished: drain() returns once finished == accepted, and its contract
  // is that every accepted future is ready by then.
  if (job.hasDeadline && dequeued > job.deadline) {
    response.outcome = CensusOutcome::kRejectedDeadlineExceeded;
    job.promise.set_value(std::move(response));
    noteFinished(Finish::kExpired, queueWaitMicros, 0.0);
    return;
  }

  try {
    response.result = anticollision::runExperiment(
        censusConfig(job.request, response.streamSeed));
    response.outcome = CensusOutcome::kCompleted;
    response.serviceMicros = microsBetween(dequeued, Clock::now());
    const double serviceMicros = response.serviceMicros;
    job.promise.set_value(std::move(response));
    noteFinished(Finish::kCompleted, queueWaitMicros, serviceMicros);
  } catch (...) {
    // A failed census still counts as finished (drain must not hang), as a
    // failure rather than a completion; the client sees the exception
    // through the future.
    job.promise.set_exception(std::current_exception());
    noteFinished(Finish::kFailed, queueWaitMicros, 0.0);
  }
}

void InventoryService::noteFinished(Finish finish, double queueWaitMicros,
                                    double serviceMicros) {
  {
    std::lock_guard lock(mutex_);
    ++finished_;
    switch (finish) {
      case Finish::kExpired:
        ++counters_.rejectedDeadline;
        if (rejectedDeadlineCounter_ != nullptr) {
          rejectedDeadlineCounter_->add();
        }
        break;
      case Finish::kFailed:
        ++counters_.failed;
        if (failedCounter_ != nullptr) failedCounter_->add();
        break;
      case Finish::kCompleted:
        ++counters_.completed;
        if (completedCounter_ != nullptr) completedCounter_->add();
        latency_.serviceMicros.add(serviceMicros);
        if (serviceTimeHist_ != nullptr) {
          serviceTimeHist_->record(serviceMicros);
        }
        break;
    }
    latency_.queueWaitMicros.add(queueWaitMicros);
    if (queueWaitHist_ != nullptr) queueWaitHist_->record(queueWaitMicros);
  }
  drainCv_.notify_all();
}

}  // namespace rfid::service
