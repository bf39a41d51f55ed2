// Job-queue unit tests: FIFO admission, bounded backpressure, the
// cancel-only-while-queued rule, tick-driven queue-wait expiry, and the
// wakeup guarantees the server's shutdown paths rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "service/job_queue.hpp"
#include "service/job_spec.hpp"
#include "service/result_cache.hpp"
#include "service/wire.hpp"

namespace qdc::service {
namespace {

JobSpec small_spec(std::uint32_t nodes = 8) {
  JobSpec spec;
  spec.nodes = nodes;
  return spec;
}

ResultBytes some_bytes() {
  return std::make_shared<const std::vector<std::uint8_t>>(4, 0x5A);
}

TEST(ServiceQueue, FifoIdsAndDepth) {
  JobQueue queue(4, nullptr);
  const std::uint64_t a = queue.submit(small_spec(8), 1, 0);
  const std::uint64_t b = queue.submit(small_spec(9), 2, 0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(queue.depth(), 2);
  EXPECT_EQ(queue.in_flight(), 0);

  const std::optional<PoppedJob> first = queue.pop();
  const std::optional<PoppedJob> second = queue.pop();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->id, a);  // FIFO
  EXPECT_EQ(second->id, b);
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.in_flight(), 2);
  EXPECT_EQ(queue.status(a)->state, JobState::Running);
}

TEST(ServiceQueue, BoundedBackpressure) {
  JobQueue queue(2, nullptr);
  EXPECT_NE(queue.submit(small_spec(), 1, 0), 0u);
  EXPECT_NE(queue.submit(small_spec(), 2, 0), 0u);
  EXPECT_EQ(queue.submit(small_spec(), 3, 0), 0u);  // full: rejected
  EXPECT_EQ(queue.counters().rejected_full, 1u);

  // Draining one job frees one admission slot.
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_NE(queue.submit(small_spec(), 3, 0), 0u);
}

// Each pop hands out exactly one job with the next pop sequence number;
// skipped (cancelled) entries consume none, so the sequence stays dense —
// the server's reorder buffer commits by it.
TEST(ServiceQueue, PopSequenceIsDenseInPopOrder) {
  JobQueue queue(8, nullptr);
  for (std::uint32_t i = 0; i < 5; ++i) {
    queue.submit(small_spec(8 + i), 100 + i, 0);
  }
  EXPECT_EQ(queue.cancel(3), JobState::Cancelled);
  const std::vector<std::uint64_t> expected_ids{1, 2, 4, 5};
  for (std::uint64_t seq = 0; seq < expected_ids.size(); ++seq) {
    const std::optional<PoppedJob> job = queue.pop();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->id, expected_ids[seq]);
    EXPECT_EQ(job->seq, seq);
    EXPECT_EQ(job->key, 99 + job->id);
    EXPECT_EQ(job->spec.nodes, 7 + job->id);
  }
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.in_flight(), 4);
}

TEST(ServiceQueue, CancelOnlyWhileQueued) {
  JobQueue queue(4, nullptr);
  const std::uint64_t queued = queue.submit(small_spec(), 1, 0);
  const std::uint64_t running = queue.submit(small_spec(), 2, 0);

  // Make `running` Running but leave `queued`... pop is FIFO, so pop
  // one: that is the first submit. Re-order: cancel the second while the
  // first runs.
  const std::optional<PoppedJob> job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, queued);

  EXPECT_EQ(queue.cancel(running), JobState::Cancelled);
  EXPECT_EQ(queue.counters().cancelled, 1u);
  // Cancelling a Running job is refused: state reported unchanged.
  EXPECT_EQ(queue.cancel(queued), JobState::Running);
  // Cancelled ids never surface in later pops.
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
  // Unknown ids are distinguishable from refusals.
  EXPECT_EQ(queue.cancel(999), std::nullopt);
}

TEST(ServiceQueue, CompleteAndFailProduceTerminalRecords) {
  JobQueue queue(4, nullptr);
  const std::uint64_t ok = queue.submit(small_spec(), 1, 0);
  const std::uint64_t bad = queue.submit(small_spec(), 2, 0);
  ASSERT_TRUE(queue.pop().has_value());
  ASSERT_TRUE(queue.pop().has_value());

  queue.complete(ok, some_bytes(), false, 55);
  queue.fail(bad, ErrorCode::ExecutionFailed, "exploded");

  const std::optional<JobRecord> done = queue.status(ok);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done);
  EXPECT_EQ(done->compute_us, 55u);
  ASSERT_NE(done->result, nullptr);
  EXPECT_EQ(done->result->size(), 4u);

  const std::optional<JobRecord> failed = queue.status(bad);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_EQ(failed->error, ErrorCode::ExecutionFailed);
  EXPECT_EQ(failed->error_message, "exploded");
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_EQ(queue.counters().completed, 1u);
  EXPECT_EQ(queue.counters().failed, 1u);
}

// Queue-wait expiry is driven entirely by the injected tick source: a
// job whose deadline passes before a worker pops it is Expired and never
// returned. With no tick source, timeouts never fire.
TEST(ServiceQueue, TickDrivenQueueWaitExpiry) {
  std::atomic<std::uint64_t> now{0};
  JobQueue queue(4, [&] { return now.load(); });

  const std::uint64_t expired = queue.submit(small_spec(), 1, 100);
  const std::uint64_t alive = queue.submit(small_spec(), 2, 1'000'000);
  now.store(500);  // past the first deadline, inside the second

  const std::optional<PoppedJob> job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, alive);
  EXPECT_EQ(job->seq, 0u);  // the expired entry consumed no sequence number
  EXPECT_EQ(queue.status(expired)->state, JobState::Expired);
  EXPECT_EQ(queue.counters().expired, 1u);
  // wall_us is measured in ticks: submit at 0, expired at 500.
  EXPECT_EQ(queue.status(expired)->wall_us, 500u);
}

TEST(ServiceQueue, NullTickDisablesTimeoutsAndTimings) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, /*timeout_us=*/1);
  const std::optional<PoppedJob> job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->id, id);  // never expires
  queue.complete(id, some_bytes(), false, 0);
  EXPECT_EQ(queue.status(id)->wall_us, 0u);
}

TEST(ServiceQueue, WaitTerminalBlocksUntilCompletion) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, 0);

  std::thread completer([&] {
    const std::optional<PoppedJob> job = queue.pop();
    ASSERT_TRUE(job.has_value());
    queue.complete(job->id, some_bytes(), false, 7);
  });
  const std::optional<JobRecord> rec = queue.wait_terminal(id);
  completer.join();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::Done);
  EXPECT_EQ(rec->compute_us, 7u);
}

// The non-drain shutdown path: close() + cancel_all_queued() must wake
// every wait_terminal with a terminal record, never leave a waiter
// blocked on a job that will never run.
TEST(ServiceQueue, CancelAllQueuedWakesWaiters) {
  JobQueue queue(4, nullptr);
  const std::uint64_t id = queue.submit(small_spec(), 1, 0);

  std::thread shutdown([&] {
    queue.close();
    queue.cancel_all_queued();
  });
  const std::optional<JobRecord> rec = queue.wait_terminal(id);
  shutdown.join();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::Cancelled);
  EXPECT_EQ(queue.submit(small_spec(), 2, 0), 0u);  // closed: rejected
}

TEST(ServiceQueue, PopUnblocksOnClose) {
  JobQueue queue(4, nullptr);
  std::thread closer([&] { queue.close(); });
  EXPECT_FALSE(queue.pop().has_value());
  closer.join();
  EXPECT_TRUE(queue.closed());
}

TEST(ServiceQueue, TerminalRingForgetsOldestRecords) {
  JobQueue queue(1, nullptr);
  std::uint64_t first = 0;
  for (int i = 0; i < JobQueue::kRetainedTerminal + 10; ++i) {
    const std::uint64_t id = queue.submit(small_spec(), 1, 0);
    ASSERT_NE(id, 0u);
    if (first == 0) first = id;
    ASSERT_TRUE(queue.pop().has_value());
    queue.complete(id, some_bytes(), false, 0);
  }
  EXPECT_EQ(queue.status(first), std::nullopt);  // forgotten
  EXPECT_NE(queue.status(first + JobQueue::kRetainedTerminal + 5),
            std::nullopt);
}

}  // namespace
}  // namespace qdc::service
