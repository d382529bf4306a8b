/**
 * @file
 * Tests for the bounded lock-free MPSC ring (common/mpsc_queue.hh):
 * single-producer FIFO order, capacity rounding and bounded-ring
 * backpressure, per-producer FIFO under multi-producer contention,
 * and a producers-vs-consumer stress case that doubles as the TSan
 * exercise for the serve runtime's ingest path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/mpsc_queue.hh"

namespace nuat {
namespace {

TEST(MpscQueue, SingleProducerFifoOrder)
{
    MpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(q.tryPush(i));
    int out = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.tryPop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(q.tryPop(out));
}

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(MpscQueue<int>(1).capacity(), 2u);
    EXPECT_EQ(MpscQueue<int>(2).capacity(), 2u);
    EXPECT_EQ(MpscQueue<int>(3).capacity(), 4u);
    EXPECT_EQ(MpscQueue<int>(1000).capacity(), 1024u);
    EXPECT_EQ(MpscQueue<int>(1024).capacity(), 1024u);
}

TEST(MpscQueue, CapacityPastTheTopBitPanicsInsteadOfWrapping)
{
    // No power of two in size_t reaches 2^63 + 1: the rounding must
    // fail loudly, not wrap to 0 and spin forever.
    setPanicThrows(true);
    const std::size_t top = ~(~std::size_t{0} >> 1);
    EXPECT_THROW(MpscQueue<int>(top + 1), std::logic_error);
    EXPECT_THROW(MpscQueue<int>(~std::size_t{0}), std::logic_error);
    setPanicThrows(false);
}

TEST(MpscQueue, FullRingReportsBackpressure)
{
    MpscQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush(i));
    // The ring is bounded: the 5th push must fail, not block or grow.
    EXPECT_FALSE(q.tryPush(99));
    int out = -1;
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(out, 0);
    // One slot freed: exactly one more push fits.
    EXPECT_TRUE(q.tryPush(99));
    EXPECT_FALSE(q.tryPush(100));
}

TEST(MpscQueue, DrainAfterWrapAround)
{
    MpscQueue<int> q(4);
    // Force several laps around the ring so the sequence counters
    // exercise the wrap path, not just the first lap.
    int expect = 0;
    for (int lap = 0; lap < 10; ++lap) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(q.tryPush(lap * 3 + i));
        for (int i = 0; i < 3; ++i) {
            int out = -1;
            ASSERT_TRUE(q.tryPop(out));
            EXPECT_EQ(out, expect++);
        }
    }
    EXPECT_EQ(q.sizeApprox(), 0u);
}

/** Value carrying its producer id so the consumer can check
 *  per-producer FIFO order under contention. */
struct Tagged
{
    std::uint32_t producer = 0;
    std::uint32_t seq = 0;
};

TEST(MpscQueue, MultiProducerPerProducerFifo)
{
    constexpr std::uint32_t kProducers = 4;
    constexpr std::uint32_t kPerProducer = 20000;
    MpscQueue<Tagged> q(256);

    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (std::uint32_t i = 0; i < kPerProducer; ++i) {
                Tagged t;
                t.producer = p;
                t.seq = i;
                while (!q.tryPush(t))
                    std::this_thread::yield();
            }
        });
    }

    // Single consumer: total order is interleaving-dependent, but
    // each producer's values must arrive in its push order.
    std::vector<std::uint32_t> nextSeq(kProducers, 0);
    std::uint64_t popped = 0;
    const std::uint64_t total =
        std::uint64_t{kProducers} * kPerProducer;
    while (popped < total) {
        Tagged t;
        if (!q.tryPop(t)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_LT(t.producer, kProducers);
        EXPECT_EQ(t.seq, nextSeq[t.producer]);
        ++nextSeq[t.producer];
        ++popped;
    }
    for (std::uint32_t p = 0; p < kProducers; ++p)
        EXPECT_EQ(nextSeq[p], kPerProducer);
    Tagged t;
    EXPECT_FALSE(q.tryPop(t));
    for (auto &th : producers)
        th.join();
}

TEST(MpscQueue, StressConservesEverySlot)
{
    // Tiny ring + many values: maximum backpressure churn.  Under
    // --sanitize tsan this is the race detector's view of the serve
    // ingest protocol (release publish, acquire consume).
    constexpr std::uint32_t kProducers = 3;
    constexpr std::uint32_t kPerProducer = 50000;
    MpscQueue<std::uint64_t> q(8);
    std::atomic<std::uint64_t> pushSum{0};

    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            std::uint64_t local = 0;
            for (std::uint32_t i = 1; i <= kPerProducer; ++i) {
                const std::uint64_t v =
                    (std::uint64_t{p} << 32) | i;
                while (!q.tryPush(v))
                    std::this_thread::yield();
                local += v;
            }
            pushSum.fetch_add(local, std::memory_order_relaxed);
        });
    }

    std::uint64_t popSum = 0;
    std::uint64_t popped = 0;
    const std::uint64_t total =
        std::uint64_t{kProducers} * kPerProducer;
    while (popped < total) {
        std::uint64_t v = 0;
        if (!q.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        popSum += v;
        ++popped;
    }
    for (auto &th : producers)
        th.join();
    // Conservation: every pushed value popped exactly once.
    EXPECT_EQ(popSum, pushSum.load(std::memory_order_relaxed));
    EXPECT_EQ(q.sizeApprox(), 0u);
}

} // namespace
} // namespace nuat
