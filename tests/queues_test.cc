/**
 * @file
 * Tests for the request queues and the bank index they maintain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/request_queues.hh"

namespace nuat {
namespace {

std::unique_ptr<Request>
makeReq(std::uint64_t id, Addr addr, unsigned bank = 0,
        std::uint32_t row = 0)
{
    auto r = std::make_unique<Request>();
    r->id = id;
    r->addr = addr;
    r->bank = BankId{bank};
    r->row = RowId{row};
    return r;
}

TEST(RequestQueue, CapacityAndRoom)
{
    RequestQueue q(2);
    EXPECT_TRUE(q.hasRoom());
    EXPECT_TRUE(q.empty());
    q.push(makeReq(1, 0x40));
    EXPECT_TRUE(q.hasRoom());
    q.push(makeReq(2, 0x80));
    EXPECT_FALSE(q.hasRoom());
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.capacity(), 2u);
}

TEST(RequestQueue, OverflowPanics)
{
    setPanicThrows(true);
    RequestQueue q(1);
    q.push(makeReq(1, 0x40));
    EXPECT_THROW(q.push(makeReq(2, 0x80)), std::logic_error);
    setPanicThrows(false);
}

TEST(RequestQueue, FindLine)
{
    RequestQueue q(4);
    q.push(makeReq(1, 0x40));
    q.push(makeReq(2, 0x80));
    ASSERT_NE(q.findLine(0x80), nullptr);
    EXPECT_EQ(q.findLine(0x80)->id, 2u);
    EXPECT_EQ(q.findLine(0xc0), nullptr);
}

TEST(RequestQueue, RemoveReturnsOwnership)
{
    RequestQueue q(4);
    q.push(makeReq(1, 0x40));
    q.push(makeReq(2, 0x80));
    Request *target = q.findLine(0x40);
    auto removed = q.remove(target);
    EXPECT_EQ(removed->id, 1u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.findLine(0x40), nullptr);
}

TEST(RequestQueue, RemoveUnknownPanics)
{
    setPanicThrows(true);
    RequestQueue q(4);
    q.push(makeReq(1, 0x40));
    Request ghost;
    EXPECT_THROW(q.remove(&ghost), std::logic_error);
    setPanicThrows(false);
}

TEST(RequestQueue, IterationInArrivalOrder)
{
    RequestQueue q(4);
    q.push(makeReq(5, 0x40));
    q.push(makeReq(6, 0x80));
    q.push(makeReq(7, 0xc0));
    std::uint64_t expect = 5;
    for (const auto &r : q)
        EXPECT_EQ(r->id, expect++);
}

/**
 * Require @p index to describe @p reads and @p writes exactly: per
 * bank, the requests of each queue in arrival order, brute-force row
 * and bank counts, and every bank with demand listed once.
 */
void
expectIndexMatches(const BankIndex &index, const RequestQueue &reads,
                   const RequestQueue &writes, unsigned ranks,
                   unsigned banks, unsigned rows)
{
    std::vector<std::size_t> active = index.activeBanks();
    std::sort(active.begin(), active.end());
    EXPECT_TRUE(std::adjacent_find(active.begin(), active.end()) ==
                active.end());
    for (unsigned r = 0; r < ranks; ++r) {
        for (unsigned b = 0; b < banks; ++b) {
            const RankId rank{r};
            const BankId bank{b};
            const std::size_t flat = index.flatBank(rank, bank);
            auto ofBank = [&](const RequestQueue &q) {
                std::vector<Request *> out;
                for (const auto &req : q) {
                    if (req->rank == rank && req->bank == bank)
                        out.push_back(req.get());
                }
                return out;
            };
            const std::vector<Request *> want_reads = ofBank(reads);
            const std::vector<Request *> want_writes = ofBank(writes);
            EXPECT_EQ(index.reads(flat), want_reads);
            EXPECT_EQ(index.writes(flat), want_writes);
            const std::size_t total = want_reads.size() + want_writes.size();
            EXPECT_EQ(index.bankDemand(flat), total);
            EXPECT_EQ(std::binary_search(active.begin(), active.end(), flat),
                      total > 0);
            for (unsigned row = 0; row < rows; ++row) {
                auto count = [&](const std::vector<Request *> &list) {
                    return static_cast<unsigned>(std::count_if(
                        list.begin(), list.end(), [&](const Request *req) {
                            return req->row == RowId{row};
                        }));
                };
                const BankIndex::RowDemand d =
                    index.demandFor(flat, RowId{row});
                EXPECT_EQ(d.reads, count(want_reads));
                EXPECT_EQ(d.writes, count(want_writes));
            }
        }
    }
}

TEST(BankIndex, TracksTwoQueuesThroughPushesAndMiddleRemovals)
{
    constexpr unsigned kRanks = 2;
    constexpr unsigned kBanks = 4;
    constexpr unsigned kRows = 3;
    BankIndex index;
    index.reset(kRanks, kBanks);
    RequestQueue reads(16);
    RequestQueue writes(16);
    reads.attachBankIndex(&index);
    writes.attachBankIndex(&index);

    Rng rng(0xba4c);
    std::uint64_t next_id = 1;
    for (int step = 0; step < 2000; ++step) {
        const bool write = rng.chance(0.4);
        RequestQueue &q = write ? writes : reads;
        // Grow while small, shrink while large, else either way.
        const bool push = q.empty() || (q.hasRoom() && rng.chance(0.55));
        if (push) {
            auto req = makeReq(next_id, next_id * 64,
                               static_cast<unsigned>(rng.below(kBanks)),
                               static_cast<std::uint32_t>(rng.below(kRows)));
            ++next_id;
            req->isWrite = write;
            req->rank = RankId{static_cast<unsigned>(rng.below(kRanks))};
            q.push(std::move(req));
        } else {
            // Remove from anywhere, the middle included.
            auto it = q.begin();
            std::advance(it, static_cast<long>(rng.below(q.size())));
            q.remove(it->get());
        }
        expectIndexMatches(index, reads, writes, kRanks, kBanks, kRows);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "index diverged at step " << step;
            return;
        }
    }
    EXPECT_GT(next_id, 500u);
}

} // namespace
} // namespace nuat
