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

Request
makeReq(std::uint64_t id, Addr addr, unsigned bank = 0,
        std::uint32_t row = 0)
{
    Request r;
    r.id = id;
    r.addr = addr;
    r.bank = BankId{bank};
    r.row = RowId{row};
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

TEST(RequestQueue, DuplicateLinePanics)
{
    setPanicThrows(true);
    RequestQueue q(4);
    q.push(makeReq(1, 0x40));
    EXPECT_THROW(q.push(makeReq(2, 0x40)), std::logic_error);
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

TEST(RequestQueue, RemovedSlotIsReusedWithNoWaiters)
{
    RequestQueue q(4);
    Request &first = q.push(makeReq(1, 0x40));
    first.waiters.push_back(Waiter{3, 7});
    q.push(makeReq(2, 0x80));
    q.remove(&first);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.findLine(0x40), nullptr);

    // The slot comes back for the next request, which starts with no
    // waiters, and the other request has not moved.
    const Request *kept = q.findLine(0x80);
    Request &third = q.push(makeReq(3, 0xc0));
    EXPECT_EQ(&third, &first);
    EXPECT_EQ(third.id, 3u);
    EXPECT_TRUE(third.waiters.empty());
    EXPECT_EQ(q.findLine(0xc0), &third);
    EXPECT_EQ(q.findLine(0x80), kept);
}

TEST(RequestQueue, RemoveUnknownPanics)
{
    setPanicThrows(true);
    RequestQueue q(4);
    q.push(makeReq(1, 0x40));
    Request ghost = makeReq(2, 0x40);
    EXPECT_THROW(q.remove(&ghost), std::logic_error);
    EXPECT_EQ(q.size(), 1u);
    setPanicThrows(false);
}

/** What a test saw pushed: the slot and the fields it was given. */
struct Pushed
{
    Request *req;
    std::uint64_t id;
    Addr line;
};

/**
 * Require @p index to describe @p reads and @p writes (each in push
 * order) exactly: per bank, the requests of each queue in arrival
 * order, brute-force row and bank counts, and every bank with demand
 * listed once.
 */
void
expectIndexMatches(const BankIndex &index, const std::vector<Pushed> &reads,
                   const std::vector<Pushed> &writes, unsigned ranks,
                   unsigned banks, unsigned rows)
{
    std::vector<std::size_t> active = index.activeBanks();
    std::sort(active.begin(), active.end());
    EXPECT_TRUE(std::adjacent_find(active.begin(), active.end()) ==
                active.end());
    auto listed = [](const BankIndex::List &list) {
        std::vector<Request *> out;
        for (Request *req : list)
            out.push_back(req);
        return out;
    };
    for (unsigned r = 0; r < ranks; ++r) {
        for (unsigned b = 0; b < banks; ++b) {
            const RankId rank{r};
            const BankId bank{b};
            const std::size_t flat = index.flatBank(rank, bank);
            auto ofBank = [&](const std::vector<Pushed> &pushed) {
                std::vector<Request *> out;
                for (const Pushed &p : pushed) {
                    if (p.req->rank == rank && p.req->bank == bank)
                        out.push_back(p.req);
                }
                return out;
            };
            const std::vector<Request *> want_reads = ofBank(reads);
            const std::vector<Request *> want_writes = ofBank(writes);
            EXPECT_EQ(listed(index.reads(flat)), want_reads);
            EXPECT_EQ(listed(index.writes(flat)), want_writes);
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

/**
 * Require @p q to hold exactly @p pushed: each slot still carries the
 * id and line it was pushed with, forEach visits each once, and
 * findLine answers every line of @p pool as a scan of @p pushed does.
 */
void
expectStoreMatches(const RequestQueue &q, const std::vector<Pushed> &pushed,
                   const std::vector<Addr> &pool)
{
    EXPECT_EQ(q.size(), pushed.size());
    std::vector<const Request *> want;
    for (const Pushed &p : pushed) {
        EXPECT_EQ(p.req->id, p.id);
        EXPECT_EQ(p.req->addr, p.line);
        want.push_back(p.req);
    }
    std::vector<const Request *> got;
    q.forEach([&](const Request &req) { got.push_back(&req); });
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    for (const Addr line : pool) {
        const Request *scan = nullptr;
        for (const Pushed &p : pushed) {
            if (p.line == line)
                scan = p.req;
        }
        EXPECT_EQ(q.findLine(line), scan) << "line " << line;
    }
}

TEST(BankIndex, TracksTwoQueuesThroughPushesAndMiddleRemovals)
{
    constexpr unsigned kRanks = 2;
    constexpr unsigned kBanks = 4;
    constexpr unsigned kRows = 3;
    BankIndex index;
    index.reset(kRanks, kBanks);
    RequestQueue reads(16); // a 32-cell line table
    RequestQueue writes(4); // an 8-cell one: runs often wrap its end
    reads.attachBankIndex(&index);
    writes.attachBankIndex(&index);

    // Both queues draw lines from one small pool: lines come back after
    // removal, a line can sit in both queues at once, and at a full
    // queue's half-full table, probe runs collide and wrap around the
    // table's end.
    std::vector<Addr> pool;
    for (Addr k = 0; k < 40; ++k)
        pool.push_back(0x10000 + k * 64);

    setPanicThrows(true);
    Rng rng(0xba4c);
    std::uint64_t next_id = 1;
    std::vector<Pushed> pushed[2];   // per queue, in push order
    bool filling[2] = {true, true};  // drive each queue full, then down
    unsigned fills[2] = {0, 0};
    for (int step = 0; step < 4000; ++step) {
        const int w = rng.chance(0.4) ? 1 : 0;
        RequestQueue &q = w ? writes : reads;
        RequestQueue &other = w ? reads : writes;
        std::vector<Pushed> &mine = pushed[w];
        if (q.empty())
            filling[w] = true;
        if (filling[w] && !q.hasRoom()) {
            filling[w] = false;
            ++fills[w];
        }
        const bool push = filling[w] ? rng.chance(0.8) : rng.chance(0.2);
        if (push && q.hasRoom()) {
            Addr line;
            do {
                line = pool[rng.below(pool.size())];
            } while (q.findLine(line));
            Request head = makeReq(
                next_id, line, static_cast<unsigned>(rng.below(kBanks)),
                static_cast<std::uint32_t>(rng.below(kRows)));
            head.isWrite = w == 1;
            head.rank = RankId{static_cast<unsigned>(rng.below(kRanks))};
            mine.push_back(Pushed{&q.push(head), next_id, line});
            ++next_id;
        } else if (!q.empty()) {
            // Remove from anywhere, the middle included.
            const auto at = mine.begin() +
                            static_cast<long>(rng.below(mine.size()));
            Request *victim = at->req;
            mine.erase(at);
            q.remove(victim);
            EXPECT_THROW(q.remove(victim), std::logic_error);
            if (!pushed[1 - w].empty()) {
                Request *foreign =
                    pushed[1 - w][rng.below(pushed[1 - w].size())].req;
                EXPECT_THROW(q.remove(foreign), std::logic_error);
                EXPECT_EQ(other.findLine(foreign->addr), foreign);
            }
        }
        expectStoreMatches(reads, pushed[0], pool);
        expectStoreMatches(writes, pushed[1], pool);
        expectIndexMatches(index, pushed[0], pushed[1], kRanks, kBanks,
                           kRows);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "store diverged at step " << step;
            break;
        }
    }
    setPanicThrows(false);
    EXPECT_GT(next_id, 1500u);
    EXPECT_GE(fills[0], 10u);
    EXPECT_GE(fills[1], 10u);
}

} // namespace
} // namespace nuat
