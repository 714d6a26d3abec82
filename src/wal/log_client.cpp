#include "wal/log_client.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/logging.h"

namespace pravega::wal {

LogClient::LogClient(WalEnv env, sim::HostId clientHost, uint64_t logId, Config cfg)
    : env_(std::move(env)), clientHost_(clientHost), logId_(logId), cfg_(cfg) {
    assert(!env_.bookies.empty());
    // The registry doubles as the bookie availability view; ensemble
    // changes draw replacements from this pool.
    if (env_.registry.bookiePool().empty()) {
        env_.registry.setBookiePool(env_.bookies);
    }
}

std::vector<Bookie*> LogClient::pickEnsemble() const {
    // Deterministic rotation spreads ensembles of different logs across the
    // bookie fleet.
    std::vector<Bookie*> out;
    size_t n = env_.bookies.size();
    size_t start = static_cast<size_t>(mix64(logId_) % n);
    for (int i = 0; i < cfg_.repl.ensembleSize; ++i) {
        out.push_back(env_.bookies[(start + static_cast<size_t>(i)) % n]);
    }
    return out;
}

Result<std::vector<std::pair<LogAddress, SharedBuf>>> LogClient::recover() {
    std::vector<std::pair<LogAddress, SharedBuf>> out;
    auto& refs = env_.logMeta.logs[logId_];
    int64_t lastSeq = -1;
    for (const auto& ref : refs) {
        auto entries = LedgerHandle::recoverAndClose(env_.registry, ref.id);
        if (!entries) {
            // Deleted (truncated) ledgers simply contribute nothing.
            continue;
        }
        int64_t seq = ref.firstSequence;
        for (auto& buf : entries.value()) {
            LogAddress addr{ref.id, static_cast<EntryId>(seq - ref.firstSequence), seq};
            out.emplace_back(addr, std::move(buf));
            lastSeq = seq++;
        }
        lastSeq = std::max(lastSeq, ref.firstSequence - 1 +
                                        static_cast<int64_t>(entries.value().size()));
    }
    nextSequence_ = lastSeq + 1;
    nextToDeliver_ = nextSequence_;
    initialized_ = true;
    rollover();
    return out;
}

void LogClient::rollover() {
    if (current_) {
        current_->close();
        // The closed handle may still have appends awaiting bookie acks;
        // keep it alive until they drain.
        std::erase_if(retired_, [this](const auto& h) {
            if (h->hasInFlight()) return false;
            ensembleChangesRetired_ += h->ensembleChanges();
            return true;
        });
        retired_.push_back(std::move(current_));
    }
    LedgerId id = env_.registry.create(pickEnsemble());
    env_.logMeta.logs[logId_].push_back({id, nextSequence_});
    current_ = std::make_unique<LedgerHandle>(env_.exec, env_.net, clientHost_, env_.registry,
                                              id, cfg_.repl);
}

sim::Future<LogAddress> LogClient::append(BufChain data) {
    assert(initialized_ && "recover() must run before append()");
    if (current_->appendedBytes() >= cfg_.rolloverBytes) rollover();

    int64_t seq = nextSequence_++;
    auto& m = env_.exec.metrics();
    m.counter("wal.log.appends").inc();
    m.counter("wal.log.append_bytes").inc(data.size());
    LedgerId ledger = current_->id();
    sim::Promise<LogAddress> promise;
    auto fut = promise.future();
    waiting_.emplace(seq, std::move(promise));

    current_->addEntry(std::move(data))
        .onComplete([this, seq, ledger](const Result<EntryId>& r) {
            if (r.isOk()) {
                deliverInOrder(seq, LogAddress{ledger, r.value(), seq});
            } else {
                deliverInOrder(seq, r.status());
            }
        });
    return fut;
}

void LogClient::deliverInOrder(int64_t seq, Result<LogAddress> result) {
    completed_.emplace(seq, std::move(result));
    while (!completed_.empty() && completed_.begin()->first == nextToDeliver_) {
        auto cit = completed_.begin();
        auto wit = waiting_.find(cit->first);
        assert(wit != waiting_.end());
        auto promise = std::move(wit->second);
        auto res = std::move(cit->second);
        waiting_.erase(wit);
        completed_.erase(cit);
        ++nextToDeliver_;
        promise.complete(std::move(res));
    }
}

void LogClient::truncate(LogAddress upTo) {
    auto& refs = env_.logMeta.logs[logId_];
    // A ledger is deletable when the next ledger starts at or before the
    // truncation sequence + 1 (i.e., every entry in it is <= upTo) and it
    // is not the ledger currently open for appends.
    while (refs.size() > 1 && refs[1].firstSequence <= upTo.sequence + 1 &&
           (!current_ || refs[0].id != current_->id())) {
        auto* info = env_.registry.find(refs[0].id);
        if (info) {
            // Delete from every member that ever held entries (ensemble
            // changes may have spread the ledger beyond the final ensemble).
            const auto& members =
                info->everMembers.empty() ? info->ensemble : info->everMembers;
            for (Bookie* b : members) b->deleteLedger(refs[0].id);
        }
        env_.registry.erase(refs[0].id);
        refs.erase(refs.begin());
    }
}

size_t LogClient::ledgerCount() const {
    auto it = env_.logMeta.logs.find(logId_);
    return it == env_.logMeta.logs.end() ? 0 : it->second.size();
}

}  // namespace pravega::wal
