/**
 * @file
 * Read / write request queues with line-merging support.
 *
 * Reads to a line that already has a pending read merge onto it (one
 * DRAM access serves all waiters); writes to a line with a pending
 * write coalesce (last-writer-wins, and the line is only written once);
 * reads that hit a pending write are forwarded by the controller and
 * never enter the read queue.
 */

#ifndef NUAT_MEM_REQUEST_QUEUES_HH
#define NUAT_MEM_REQUEST_QUEUES_HH

#include <deque>
#include <memory>
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
 * demand.  Every lookup is allocation-free: the per-bank vectors keep
 * their capacity, so steady state never allocates.
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

    /** Size for @p ranks x @p banks; drops every request. */
    void reset(unsigned ranks, unsigned banks);

    /** File @p req (called by RequestQueue::push); req.isWrite picks
     *  the bank's read or write list. */
    void add(Request &req);

    /** Unfile @p req (called by RequestQueue::remove). */
    void remove(const Request &req);

    /** Flat index of (@p rank, @p bank): rank * banks + bank. */
    std::size_t flatBank(RankId rank, BankId bank) const
    {
        return rank.value() * banks_ + bank.value();
    }

    /** Queued requests targeting @p row of bank @p flat. */
    RowDemand demandFor(std::size_t flat, RowId row) const;

    /** Queued requests targeting bank @p flat, any row.  Refresh
     *  policies ask it for every bank on every scan, so it reads one
     *  compact array. */
    unsigned bankDemand(std::size_t flat) const { return bankCount_[flat]; }

    /** Bank @p flat's queued reads, in arrival order. */
    const std::vector<Request *> &reads(std::size_t flat) const
    {
        return perBank_[flat].reads;
    }

    /** Bank @p flat's queued writes, in arrival order. */
    const std::vector<Request *> &writes(std::size_t flat) const
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
        std::vector<Request *> reads;
        std::vector<Request *> writes;
        std::vector<RowCount> rows; //!< rows with demand, any order
        std::size_t activePos = 0;  //!< slot in active_ while queued
    };

    unsigned banks_ = 0;
    std::vector<Bank> perBank_;       //!< indexed by flatBank()
    std::vector<unsigned> bankCount_; //!< requests per bank, same index
    std::vector<std::size_t> active_;
};

/** A bounded FIFO of requests (arrival order preserved). */
class RequestQueue
{
  public:
    /** @param capacity maximum simultaneously queued requests */
    explicit RequestQueue(std::size_t capacity);

    /** File queue contents in @p index (may be shared with other
     *  queues; must outlive this queue; attach while empty). */
    void attachBankIndex(BankIndex *index);

    /** True when another request can be accepted. */
    bool hasRoom() const { return queue_.size() < capacity_; }

    /** Current occupancy. */
    std::size_t size() const { return queue_.size(); }

    /** True when empty. */
    bool empty() const { return queue_.empty(); }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Append @p req (takes ownership); panics when full. */
    void push(std::unique_ptr<Request> req);

    /** Find the queued request for line @p addr, or nullptr. */
    Request *findLine(Addr addr);

    /** Find the queued request for line @p addr, or nullptr. */
    const Request *findLine(Addr addr) const;

    /** Remove and return the request with identity @p req. */
    std::unique_ptr<Request> remove(const Request *req);

    /** Iterate requests in arrival order. */
    auto begin() const { return queue_.begin(); }
    auto end() const { return queue_.end(); }

  private:
    std::size_t capacity_;
    std::deque<std::unique_ptr<Request>> queue_;
    BankIndex *index_ = nullptr;
};

} // namespace nuat

#endif // NUAT_MEM_REQUEST_QUEUES_HH
