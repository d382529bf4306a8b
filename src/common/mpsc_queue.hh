/**
 * @file
 * Bounded lock-free multi-producer queue (Vyukov ring).
 *
 * The serve runtime's ingest path: trace producer threads push
 * StreamRequests, one shard thread pops them.  The ring is the classic
 * bounded MPMC design (per-slot sequence counters, two cache-line-
 * separated cursors), used here in MPSC configuration; it supports any
 * number of producers and consumers, never blocks, never allocates
 * after construction, and reports a full ring by returning false from
 * tryPush — that is the backpressure signal producers act on (yield
 * and retry).
 *
 * Memory ordering: a slot's sequence counter is the hand-off flag.
 * The producer publishes the value with a release store of seq, the
 * consumer acquires it before reading, so every tryPop observes a
 * fully constructed value.  Cursor bumps are relaxed CAS: ordering
 * between different slots is carried by the per-slot counters alone.
 */

#ifndef NUAT_COMMON_MPSC_QUEUE_HH
#define NUAT_COMMON_MPSC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "logging.hh"
#include "thread_annotations.hh"

namespace nuat {

/**
 * Deterministic capped exponential backoff for producers that hit a
 * full ring.  Replaces the old unbounded yield spin: each pause()
 * yields the CPU a growing number of times (1, 2, 4, ... up to the
 * cap), so a briefly full ring costs a couple of yields while a
 * persistently full ring backs the producer off hard instead of
 * burning a core.  The schedule is a pure function of the call count —
 * no wall clock, no randomness — so a replayed run backs off
 * identically (fault-determinism).  Not thread-safe: one instance per
 * producer thread.
 */
class SpinBackoff
{
  public:
    /**
     * @param initial_yields yields on the first pause (>= 1 enforced)
     * @param cap_yields     ceiling the doubling stops at
     */
    explicit SpinBackoff(unsigned initial_yields = 1,
                         unsigned cap_yields = 1024)
        : initial_(initial_yields < 1 ? 1 : initial_yields),
          cap_(cap_yields < initial_ ? initial_ : cap_yields),
          next_(initial_)
    {
    }

    /**
     * Back off once: yield 2^k-scaled times, double the next pause.
     * @return the number of yields performed (for stats).
     */
    std::uint64_t
    pause()
    {
        const unsigned n = next_;
        for (unsigned i = 0; i < n; ++i)
            std::this_thread::yield();
        if (next_ < cap_)
            next_ = next_ * 2 > cap_ ? cap_ : next_ * 2;
        return n;
    }

    /** Successful push: restart the schedule at the initial pause. */
    void reset() { next_ = initial_; }

  private:
    unsigned initial_;
    unsigned cap_;
    unsigned next_;
};

/** Bounded lock-free queue; capacity is rounded up to a power of 2. */
template <typename T>
class MpscQueue
{
  public:
    /** @param capacity minimum slot count (>= 2 after rounding). */
    explicit MpscQueue(std::size_t capacity)
        : mask_(roundUpPow2(capacity < 2 ? 2 : capacity) - 1),
          slots_(std::make_unique<Slot[]>(mask_ + 1))
    {
        // relaxed: the ring is not shared yet — whoever hands it to
        // another thread provides the publication edge.
        for (std::size_t i = 0; i <= mask_; ++i)
            slots_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscQueue(const MpscQueue &) = delete;
    MpscQueue &operator=(const MpscQueue &) = delete;

    /**
     * Enqueue a copy of @p v.
     * @return false when the ring is full (backpressure: retry later).
     */
    bool
    tryPush(const T &v)
    {
        Slot *slot = nullptr;
        // relaxed: the cursor is only a claim ticket; all value
        // ordering is carried by the per-slot seq counters.
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            slot = &slots_[pos & mask_];
            // acquire: pairs with the consumer's release in tryPop so
            // a recycled slot is observed fully released.
            const std::size_t seq =
                slot->seq.load(std::memory_order_acquire);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(pos);
            if (diff == 0) {
                // relaxed CAS: claiming the ticket publishes nothing;
                // the release store of seq below is the hand-off.
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (diff < 0) {
                return false; // a full lap behind: ring is full
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
        slot->value = v;
        // release: publishes the constructed value to the consumer's
        // acquire load of seq.
        slot->seq.store(pos + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue the oldest element into @p out.
     * @return false when the ring is empty.
     */
    bool
    tryPop(T &out)
    {
        Slot *slot = nullptr;
        // relaxed: cursor is a claim ticket (see tryPush).
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            slot = &slots_[pos & mask_];
            // acquire: pairs with the producer's release store so the
            // value read below is fully constructed.
            const std::size_t seq =
                slot->seq.load(std::memory_order_acquire);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(pos + 1);
            if (diff == 0) {
                // relaxed CAS: see tryPush — seq is the hand-off.
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    break;
                }
            } else if (diff < 0) {
                return false; // producer has not filled this slot yet
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        out = std::move(slot->value);
        // release: returns the emptied slot to producers a lap later.
        slot->seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
    }

    /** Usable slot count (power of 2). */
    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Approximate occupancy; exact only while no producer or consumer
     * is concurrently active (e.g. after producers joined).
     */
    std::size_t
    sizeApprox() const
    {
        // acquire: makes the post-join exact-count use case sound
        // (pairs with the workers' release stores); mid-run the value
        // is approximate regardless of ordering.
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        const std::size_t head = head_.load(std::memory_order_acquire);
        return tail >= head ? tail - head : 0;
    }

  private:
    struct Slot
    {
        std::atomic<std::size_t> seq NUAT_LOCK_FREE(
            "per-slot hand-off flag: producer release-stores after "
            "writing value, consumer acquire-loads before reading"){0};
        T value{};
    };

    static std::size_t
    roundUpPow2(std::size_t n)
    {
        // Past the top bit, p <<= 1 would wrap to 0 and never stop.
        nuat_assert(n <= ~(~std::size_t{0} >> 1),
                    "(ring capacity %zu has no power-of-two size)", n);
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::size_t mask_;
    std::unique_ptr<Slot[]> slots_;
    /** Cursors on separate cache lines so producers bumping tail_ do
     *  not false-share with the consumer bumping head_. */
    alignas(64) std::atomic<std::size_t> tail_ NUAT_LOCK_FREE(
        "claim ticket, relaxed CAS; slot seq carries ordering"){0};
    alignas(64) std::atomic<std::size_t> head_ NUAT_LOCK_FREE(
        "claim ticket, relaxed CAS; slot seq carries ordering"){0};
};

} // namespace nuat

#endif // NUAT_COMMON_MPSC_QUEUE_HH
