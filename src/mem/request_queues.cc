#include "request_queues.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"

namespace nuat {

void
BankIndex::reset(unsigned ranks, unsigned banks)
{
    banks_ = banks;
    perBank_.assign(static_cast<std::size_t>(ranks) * banks, {});
    bankCount_.assign(static_cast<std::size_t>(ranks) * banks, 0);
    active_.clear();
}

void
BankIndex::add(Request &req)
{
    const std::size_t flat = flatBank(req.rank, req.bank);
    Bank &b = perBank_[flat];
    if (bankCount_[flat]++ == 0) {
        b.activePos = active_.size();
        active_.push_back(flat);
    }
    List &list = req.isWrite ? b.writes : b.reads;
    req.prev = list.tail;
    req.next = nullptr;
    (list.tail ? list.tail->next : list.head) = &req;
    list.tail = &req;
    for (auto &r : b.rows) {
        if (r.row == req.row) {
            ++(req.isWrite ? r.demand.writes : r.demand.reads);
            return;
        }
    }
    b.rows.push_back(RowCount{req.row, req.isWrite ? RowDemand{0, 1}
                                                   : RowDemand{1, 0}});
}

void
BankIndex::remove(Request &req)
{
    const std::size_t flat = flatBank(req.rank, req.bank);
    Bank &b = perBank_[flat];
    List &list = req.isWrite ? b.writes : b.reads;
    (req.prev ? req.prev->next : list.head) = req.next;
    (req.next ? req.next->prev : list.tail) = req.prev;
    req.prev = req.next = nullptr;
    for (auto &r : b.rows) {
        if (r.row == req.row) {
            --(req.isWrite ? r.demand.writes : r.demand.reads);
            if (r.demand.total() == 0) {
                r = b.rows.back();
                b.rows.pop_back();
            }
            break;
        }
    }
    if (--bankCount_[flat] == 0) {
        // Swap-remove from the active list, repointing the moved bank.
        const std::size_t moved = active_.back();
        active_[b.activePos] = moved;
        perBank_[moved].activePos = b.activePos;
        active_.pop_back();
    }
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    nuat_assert(capacity_ > 0);
    // At least two cells per slot: the table is at most half full.
    hashShift_ =
        64 - static_cast<unsigned>(std::bit_width(2 * capacity_ - 1));
}

void
RequestQueue::attachBankIndex(BankIndex *index)
{
    nuat_assert(empty(), "(attach while the queue holds requests)");
    index_ = index;
}

std::size_t
RequestQueue::home(Addr line) const
{
    // Fibonacci hashing: the product's top bits mix every address bit,
    // the line offset's zero bits included.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                    hashShift_);
}

std::size_t
RequestQueue::cellOf(Addr line) const
{
    const std::size_t cells = table_.size();
    if (cells == 0)
        return cells;
    // The table always has an empty cell, so every probe run ends.
    for (std::size_t i = home(line);; i = (i + 1) & (cells - 1)) {
        if (!table_[i].req)
            return cells;
        if (table_[i].line == line)
            return i;
    }
}

Request *
RequestQueue::slotOf(Addr line) const
{
    const std::size_t i = cellOf(line);
    return i < table_.size() ? table_[i].req : nullptr;
}

Request &
RequestQueue::push(const Request &head)
{
    nuat_assert(hasRoom(), "(queue overflow: caller must check hasRoom)");
    nuat_assert(head.waiters.empty(), "(push a request without waiters)");
    if (table_.empty())
        table_.resize(std::size_t{1} << (64 - hashShift_));
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(head.addr);
    for (; table_[i].req; i = (i + 1) & mask)
        nuat_assert(table_[i].line != head.addr, "(line already queued)");

    Request *slot = free_;
    if (slot)
        free_ = slot->next;
    else
        slot = &slots_.emplace_back();
    // Keep the slot's waiter buffer: a reused slot allocates nothing.
    std::vector<Waiter> waiters = std::move(slot->waiters);
    *slot = head;
    slot->waiters = std::move(waiters);
    slot->waiters.clear();

    table_[i] = Entry{head.addr, slot};
    ++size_;
    if (index_)
        index_->add(*slot);
    return *slot;
}

void
RequestQueue::eraseCell(std::size_t i)
{
    // Walk the probe run after the hole.  An entry may fill the hole
    // unless its home lies cyclically in (hole, entry], where a lookup
    // starting at its home would never pass the hole.
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (i + 1) & mask; table_[j].req; j = (j + 1) & mask) {
        const std::size_t from_home = (j - home(table_[j].line)) & mask;
        if (from_home >= ((j - i) & mask)) {
            table_[i] = table_[j];
            i = j;
        }
    }
    table_[i] = Entry{};
}

void
RequestQueue::remove(const Request *req)
{
    const std::size_t i = cellOf(req->addr);
    if (i == table_.size() || table_[i].req != req) {
        nuat_panic("request %llu not in queue",
                   static_cast<unsigned long long>(req->id));
    }
    Request *slot = table_[i].req;
    eraseCell(i);
    --size_;
    if (index_)
        index_->remove(*slot);
    slot->next = free_;
    free_ = slot;
}

} // namespace nuat
