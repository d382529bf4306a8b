#include "request_queues.hh"

#include <algorithm>

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
    (req.isWrite ? b.writes : b.reads).push_back(&req);
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
BankIndex::remove(const Request &req)
{
    const std::size_t flat = flatBank(req.rank, req.bank);
    Bank &b = perBank_[flat];
    std::vector<Request *> &list = req.isWrite ? b.writes : b.reads;
    const auto it = std::find(list.begin(), list.end(), &req);
    if (it == list.end()) {
        nuat_panic("removing request %llu that is not indexed",
                   static_cast<unsigned long long>(req.id));
    }
    list.erase(it);
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

BankIndex::RowDemand
BankIndex::demandFor(std::size_t flat, RowId row) const
{
    for (const auto &r : perBank_[flat].rows) {
        if (r.row == row)
            return r.demand;
    }
    return RowDemand{};
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    nuat_assert(capacity_ > 0);
}

void
RequestQueue::attachBankIndex(BankIndex *index)
{
    nuat_assert(queue_.empty(), "(attach while the queue holds requests)");
    index_ = index;
}

void
RequestQueue::push(std::unique_ptr<Request> req)
{
    nuat_assert(hasRoom(), "(queue overflow: caller must check hasRoom)");
    if (index_)
        index_->add(*req);
    queue_.push_back(std::move(req));
}

Request *
RequestQueue::findLine(Addr addr)
{
    for (auto &r : queue_) {
        if (r->addr == addr)
            return r.get();
    }
    return nullptr;
}

const Request *
RequestQueue::findLine(Addr addr) const
{
    return const_cast<RequestQueue *>(this)->findLine(addr);
}

std::unique_ptr<Request>
RequestQueue::remove(const Request *req)
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->get() == req) {
            std::unique_ptr<Request> out = std::move(*it);
            queue_.erase(it);
            if (index_)
                index_->remove(*out);
            return out;
        }
    }
    nuat_panic("request %llu not in queue",
               static_cast<unsigned long long>(req->id));
}

} // namespace nuat
