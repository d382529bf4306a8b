/**
 * @file
 * A simulated run allocates almost nothing per memory request.
 *
 * The controller's queues reuse their request slots and in-flight
 * entries, so once they have grown, accepting, issuing and retiring a
 * request allocates nothing.  This executable replaces the global
 * operator new and delete with counting versions, which is why it
 * holds no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/system.hh"

namespace {

std::atomic<std::uint64_t> newCalls{0};

} // namespace

void *
operator new(std::size_t size)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// GCC pairs delete's argument with operator new, not with the malloc
// inside it, and would warn about the free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void
operator delete(void *p) noexcept
{
    std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace nuat {
namespace {

TEST(Allocation, RunAllocatesAlmostNothingPerRequest)
{
    // perfbench's mc8-contended streaming-write mix: eight cores on one
    // channel fill the read queue and keep the write queue deep.
    ExperimentConfig cfg;
    cfg.workloads = {"libq", "stream", "MT-fluid", "ferret",
                     "face", "comm3",  "fluid",    "leslie"};
    cfg.memOpsPerCore = 3000;
    System system(cfg);

    const std::uint64_t before = newCalls.load();
    const RunResult result = system.run();
    const std::uint64_t calls = newCalls.load() - before;

    RecordProperty("operator_new_calls", std::to_string(calls));
    EXPECT_FALSE(result.hitCycleCap);
    const std::uint64_t requests =
        result.ctrl.readsAccepted + result.ctrl.writesAccepted;
    EXPECT_GE(requests, 24000u);
    EXPECT_LT(calls * 20, requests)
        << calls << " operator new calls for " << requests
        << " accepted requests";
}

} // namespace
} // namespace nuat
