/**
 * @file
 * Read / write request queues with line-merging support.
 *
 * Reads to a line that already has a pending read merge onto it (one
 * DRAM access serves all waiters); writes to a line with a pending
 * write coalesce (last-writer-wins, and the line is only written once);
 * reads that hit a pending write are forwarded by the controller and
 * never enter the read queue.  So a line sits in one queue at most
 * once, and each queue finds, adds and removes a request in O(1): it
 * keeps its requests in reusable slots, finds them by line through an
 * open-addressing table, and files them by bank in lists linked
 * through the requests.  Steady state allocates nothing.
 */

#ifndef NUAT_MEM_REQUEST_QUEUES_HH
#define NUAT_MEM_REQUEST_QUEUES_HH

#include <deque>
#include <vector>

#include "common/types.hh"
#include "request.hh"

namespace nuat {

/**
 * The queued requests of one or more request queues, filed by (rank,
 * bank), maintained on push/remove.
 *
 * Candidate enumeration works bank by bank: it checks each command a
 * bank needs once, and walks the bank's requests only when that command
 * is legal.  So the index keeps, per bank, its reads and its writes in
 * arrival order and its queued reads and writes per row, plus the list
 * of banks with any demand.  Refresh policies read a bank's total
 * demand.  The per-bank lists are linked through Request::prev/next,
 * so filing and unfiling are O(1); the row and bank vectors keep their
 * capacity, so steady state never allocates.
 */
class BankIndex
{
  public:
    /** Queued reads and writes to one row of a bank. */
    struct RowDemand
    {
        unsigned reads = 0;
        unsigned writes = 0;

        unsigned total() const { return reads + writes; }
    };

    /** One bank's reads or writes in arrival order, linked through
     *  Request::next; iterates as a range of Request *. */
    struct List
    {
        Request *head = nullptr;
        Request *tail = nullptr;

        struct Iterator
        {
            Request *at;

            Request *operator*() const { return at; }
            Iterator &operator++()
            {
                at = at->next;
                return *this;
            }
            bool operator!=(const Iterator &o) const { return at != o.at; }
        };

        Iterator begin() const { return Iterator{head}; }
        Iterator end() const { return Iterator{nullptr}; }
        bool empty() const { return head == nullptr; }
        Request *front() const { return head; }
    };

    /** Size for @p ranks x @p banks; drops every request. */
    void reset(unsigned ranks, unsigned banks);

    /** File @p req (called by RequestQueue::push); req.isWrite picks
     *  the bank's read or write list. */
    void add(Request &req);

    /** Unfile @p req, which must be filed (RequestQueue::remove checks
     *  its queue first). */
    void remove(Request &req);

    /** Flat index of (@p rank, @p bank): rank * banks + bank. */
    std::size_t flatBank(RankId rank, BankId bank) const
    {
        return rank.value() * banks_ + bank.value();
    }

    /** Queued requests targeting @p row of bank @p flat.  Inline:
     *  enumerate asks it once per open bank. */
    RowDemand demandFor(std::size_t flat, RowId row) const
    {
        for (const auto &r : perBank_[flat].rows) {
            if (r.row == row)
                return r.demand;
        }
        return RowDemand{};
    }

    /** Queued requests targeting bank @p flat, any row.  Refresh
     *  policies ask it for every bank on every scan, so it reads one
     *  compact array. */
    unsigned bankDemand(std::size_t flat) const { return bankCount_[flat]; }

    /** Bank @p flat's queued reads, in arrival order. */
    const List &reads(std::size_t flat) const { return perBank_[flat].reads; }

    /** Bank @p flat's queued writes, in arrival order. */
    const List &writes(std::size_t flat) const
    {
        return perBank_[flat].writes;
    }

    /** Flat indices of the banks with queued requests, each once, in
     *  no particular order. */
    const std::vector<std::size_t> &activeBanks() const { return active_; }

  private:
    struct RowCount
    {
        RowId row;
        RowDemand demand;
    };

    struct Bank
    {
        List reads;
        List writes;
        std::vector<RowCount> rows; //!< rows with demand, any order
        std::size_t activePos = 0;  //!< slot in active_ while queued
    };

    unsigned banks_ = 0;
    std::vector<Bank> perBank_;       //!< indexed by flatBank()
    std::vector<unsigned> bankCount_; //!< requests per bank, same index
    std::vector<std::size_t> active_;
};

/**
 * A bounded set of requests, at most one per line, found by line.
 *
 * Requests live in slots the queue owns.  A slot is built the first
 * time it is needed and never moves, so a Request * stays valid while
 * the request is queued; a removed request's slot goes onto a free
 * list and is reused, keeping the capacity of its waiter list.  A
 * table from line to slot (open addressing, linear probing, backward-
 * shift deletion) answers findLine and guards remove.  Arrival order
 * is Request::id order; the bank index keeps it per bank.
 */
class RequestQueue
{
  public:
    /** @param capacity maximum simultaneously queued requests */
    explicit RequestQueue(std::size_t capacity);

    // Pinned in place: the bank index and candidates point into slots_.
    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /** File queue contents in @p index (may be shared with other
     *  queues; must outlive this queue; attach while empty). */
    void attachBankIndex(BankIndex *index);

    /** True when another request can be accepted. */
    bool hasRoom() const { return size_ < capacity_; }

    /** Current occupancy. */
    std::size_t size() const { return size_; }

    /** True when empty. */
    bool empty() const { return size_ == 0; }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Queue a copy of @p head, which must have no waiters, and return
     * the slot that holds it; its waiter list starts empty.  Panics
     * when full or when head.addr is already queued.
     */
    Request &push(const Request &head);

    /** Find the queued request for line @p addr, or nullptr. */
    Request *findLine(Addr addr) { return slotOf(addr); }

    /** Find the queued request for line @p addr, or nullptr. */
    const Request *findLine(Addr addr) const { return slotOf(addr); }

    /** Remove the queued request @p req, freeing its slot; panics if
     *  @p req is not queued here. */
    void remove(const Request *req);

    /**
     * Call @p fn(Request &) on every queued request, in no particular
     * order (sort by Request::id for arrival order).  Like a
     * Candidate's, the reference is mutable; only tests walk a queue.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Entry &e : table_) {
            if (e.req)
                fn(*e.req);
        }
    }

  private:
    /** A table cell: a queued line and its slot, or empty (null). */
    struct Entry
    {
        Addr line = 0;
        Request *req = nullptr;
    };

    /** The cell where @p line's probe starts. */
    std::size_t home(Addr line) const;

    /** The cell holding @p line, or table_.size() when absent. */
    std::size_t cellOf(Addr line) const;

    /** The slot queued for @p line, or nullptr. */
    Request *slotOf(Addr line) const;

    /** Empty cell @p i, shifting later cells of its probe run back so
     *  no lookup needs a tombstone. */
    void eraseCell(std::size_t i);

    std::size_t capacity_;
    std::size_t size_ = 0;
    std::deque<Request> slots_; //!< grows on demand; never moves
    Request *free_ = nullptr;   //!< free slots, linked through next
    std::vector<Entry> table_;  //!< built on the first push
    unsigned hashShift_ = 0;    //!< 64 - log2(table size)
    BankIndex *index_ = nullptr;
};

} // namespace nuat

#endif // NUAT_MEM_REQUEST_QUEUES_HH
