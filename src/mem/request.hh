/**
 * @file
 * A memory request as tracked by the controller's queues.
 */

#ifndef NUAT_MEM_REQUEST_HH
#define NUAT_MEM_REQUEST_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace nuat {

/** Identifies one read waiter (a core-side consumer of read data). */
struct Waiter
{
    int coreId = -1;         //!< requesting core, -1 for external users
    std::uint64_t token = 0; //!< opaque caller tag (e.g. ROB index)
};

/** One queued memory request (a cache-line read or write). */
struct Request
{
    std::uint64_t id = 0;   //!< unique, monotonically increasing
    bool isWrite = false;
    Addr addr = 0;          //!< line-aligned physical address

    // Decomposed DRAM coordinates (filled by the address mapping).
    RankId rank{0};
    BankId bank{0};
    RowId row{0};
    std::uint32_t col = 0; //!< cache-line column within the row

    Cycle arrivalAt = 0;    //!< enqueue cycle

    /**
     * All read waiters attached to this request (more than one when
     * later reads to the same line were merged into it).
     */
    std::vector<Waiter> waiters;

    /** True once an ACT has been issued specifically for this request
     *  (used for row-buffer hit accounting). */
    bool hadOwnAct = false;

    /**
     * Links of the BankIndex list this request is filed in (its bank's
     * reads or writes, in arrival order).  While the request's queue
     * slot is free, next links the queue's free list instead.
     */
    Request *prev = nullptr;
    Request *next = nullptr;
};

} // namespace nuat

#endif // NUAT_MEM_REQUEST_HH
