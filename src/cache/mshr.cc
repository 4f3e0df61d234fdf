#include "mshr.hh"

#include <algorithm>

#include "common/log.hh"

namespace dasdram
{

MshrFile::MshrFile(unsigned capacity, std::string name)
    : capacity_(capacity), statGroup_(std::move(name))
{
    statGroup_.addCounter("allocations", &allocations_);
    statGroup_.addCounter("coalesced", &coalesced_,
                          "misses merged into an outstanding fill");
    statGroup_.addHistogram("occupancy", &occupancy_,
                            "entries in use after each allocation");
}

std::size_t
MshrFile::claimSlot(Addr line)
{
    if (used_ == lines_.size()) {
        lines_.push_back(line);
        waiters_.emplace_back();
    } else {
        lines_[used_] = line; // its waiter buffer was left empty
    }
    return used_++;
}

void
MshrFile::allocate(Addr line)
{
    if (full())
        panic("MSHR allocate when full");
    if (outstanding(line))
        panic("MSHR allocate for already outstanding line {:x}", line);
    claimSlot(line);
    allocations_.inc();
    occupancy_.sample(used_);
}

void
MshrFile::addWaiter(Addr line, Continuation w)
{
    const std::size_t i = find(line);
    if (i == kNone)
        panic("MSHR addWaiter without outstanding entry");
    waiters_[i].push_back(w);
    coalesced_.inc();
}

void
MshrFile::complete(Addr line, Cycle tick)
{
    const std::size_t i = find(line);
    if (i == kNone)
        panic("MSHR complete without outstanding entry");
    // Take the slot's waiters into the hand-off buffer, leaving the
    // slot its empty one; then free the slot by moving the
    // last live slot into it. Buffers only trade places.
    std::vector<Continuation> waiters = std::move(completing_);
    waiters.swap(waiters_[i]);
    --used_;
    if (i != used_) {
        lines_[i] = lines_[used_];
        waiters_[i].swap(waiters_[used_]);
    }
    if (!dispatch_ && !waiters.empty())
        panic("MSHR complete with waiters but no dispatcher");
    for (const Continuation &w : waiters)
        dispatch_(w, line, tick);
    waiters.clear();
    completing_ = std::move(waiters);
}

void
MshrFile::serdeState(Archive &ar)
{
    ar.section("mshr");
    std::uint64_t n = used_;
    ar.io(n);
    if (ar.saving()) {
        std::vector<std::size_t> order(used_);
        for (std::size_t i = 0; i < used_; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [this](std::size_t a, std::size_t b) {
                      return lines_[a] < lines_[b];
                  });
        for (std::size_t i : order) {
            ar.io(lines_[i]);
            std::uint64_t w = waiters_[i].size();
            ar.io(w);
            for (Continuation &c : waiters_[i])
                c.serdeState(ar);
        }
    } else {
        for (std::size_t i = 0; i < used_; ++i)
            waiters_[i].clear();
        used_ = 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            Addr line = 0;
            ar.io(line);
            std::vector<Continuation> &waiters = waiters_[claimSlot(line)];
            std::uint64_t w = 0;
            ar.io(w);
            waiters.resize(static_cast<std::size_t>(w));
            for (Continuation &c : waiters)
                c.serdeState(ar);
        }
    }
    ar.end();
}

} // namespace dasdram
