#include "wal/bookie.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace pravega::wal {

Bookie::Bookie(sim::Core& exec, sim::HostId host, sim::DiskModel& journalDrive, Config cfg)
    : exec_(exec),
      host_(host),
      journal_(journalDrive),
      cfg_(cfg),
      journalFileId_(mix64(0xB00C1E00ULL + static_cast<uint64_t>(host))),
      mAdds_(exec.metrics().counter("wal.bookie.adds")),
      mAddBytes_(exec.metrics().counter("wal.bookie.add_bytes")),
      mRejectUnavailable_(exec.metrics().counter("wal.bookie.reject.unavailable")),
      mRejectFenced_(exec.metrics().counter("wal.bookie.reject.fenced")),
      mCrashes_(exec.metrics().counter("wal.bookie.crashes")),
      mRestarts_(exec.metrics().counter("wal.bookie.restarts")),
      mFlushes_(exec.metrics().counter("wal.bookie.journal.flushes")),
      mGroupBytes_(exec.metrics().histogram("wal.bookie.journal.group_bytes")),
      mGroupEntries_(exec.metrics().histogram("wal.bookie.journal.group_entries")),
      mSyncNs_(exec.metrics().histogram("trace.write.3_journal_sync_ns")) {}

sim::Future<sim::Unit> Bookie::addEntry(LedgerId ledger, EntryId entry, BufChain data) {
    if (!alive_) {
        mRejectUnavailable_.inc();
        return sim::Future<sim::Unit>::failed(Status(Err::Unavailable, "bookie crashed"));
    }
    if (deleted_.contains(ledger)) {
        return sim::Future<sim::Unit>::failed(Status(Err::NotFound, "ledger deleted"));
    }
    auto& state = ledgers_[ledger];
    if (state.fenced) {
        mRejectFenced_.inc();
        return sim::Future<sim::Unit>::failed(Status(Err::Fenced, "ledger fenced"));
    }
    mAdds_.inc();
    mAddBytes_.inc(data.size());
    storedBytes_ += data.size();
    state.entries[entry] = data;

    PendingAdd add;
    add.ledger = ledger;
    add.entry = entry;
    add.data = std::move(data);
    add.journalBytes = add.data.size() + cfg_.entryOverheadBytes;
    auto fut = add.done.future();
    pending_.push_back(std::move(add));
    maybeStartFlush();
    return fut;
}

void Bookie::maybeStartFlush() {
    if (flushInFlight_ || pending_.empty()) return;
    flushInFlight_ = true;

    // Group commit: take everything queued (up to the group bound) into one
    // journal write; requests arriving during the write join the next group.
    std::vector<JournalRecord> records;
    uint64_t bytes = 0;
    while (!pending_.empty() && (inFlightAcks_.empty() || bytes < cfg_.maxGroupBytes)) {
        bytes += pending_.front().journalBytes;
        inFlightAcks_.push_back(std::move(pending_.front().done));
        records.push_back(JournalRecord{pending_.front().ledger, pending_.front().entry,
                                        std::move(pending_.front().data)});
        pending_.pop_front();
    }
    // Charge the per-entry processing as equivalent journal bytes so it
    // rides the same serialized device (entries × latency × bandwidth).
    uint64_t entryCost = static_cast<uint64_t>(
        static_cast<double>(inFlightAcks_.size()) *
        static_cast<double>(cfg_.perEntryLatency) / 1e9 * journal_.config().bytesPerSec);

    mFlushes_.inc();
    mGroupBytes_.record(static_cast<sim::Duration>(bytes));
    mGroupEntries_.record(static_cast<sim::Duration>(inFlightAcks_.size()));
    sim::TimePoint flushStart = exec_.now();
    journal_.write(journalFileId_, bytes + entryCost, cfg_.journalSync)
        .onComplete(flush_.guard([this, flushStart,
                     records = std::move(records)](const Result<sim::Unit>&) mutable {
            mSyncNs_.record(exec_.now() - flushStart);
            for (auto& rec : records) journalRecords_.push_back(std::move(rec));
            auto acks = std::move(inFlightAcks_);
            inFlightAcks_.clear();
            flushInFlight_ = false;
            for (auto& p : acks) p.setValue(sim::Unit{});
            maybeStartFlush();
        }));
}

Result<EntryId> Bookie::fenceLedger(LedgerId ledger) {
    if (!alive_) return Status(Err::Unavailable, "bookie crashed");
    if (deleted_.contains(ledger)) return Status(Err::NotFound, "ledger deleted");
    auto& state = ledgers_[ledger];
    state.fenced = true;
    fenced_.insert(ledger);
    return state.entries.empty() ? kNoEntry : state.entries.rbegin()->first;
}

Result<SharedBuf> Bookie::readEntry(LedgerId ledger, EntryId entry) const {
    if (!alive_) return Status(Err::Unavailable, "bookie crashed");
    auto it = ledgers_.find(ledger);
    if (it == ledgers_.end()) return Status(Err::NotFound, "no such ledger");
    auto eit = it->second.entries.find(entry);
    if (eit == it->second.entries.end()) return Status(Err::NotFound, "no such entry");
    return eit->second.linearize();
}

Result<EntryId> Bookie::lastEntry(LedgerId ledger) const {
    if (!alive_) return Status(Err::Unavailable, "bookie crashed");
    auto it = ledgers_.find(ledger);
    if (it == ledgers_.end()) return Status(Err::NotFound, "no such ledger");
    return it->second.entries.empty() ? kNoEntry : it->second.entries.rbegin()->first;
}

void Bookie::deleteLedger(LedgerId ledger) {
    if (!alive_) return;
    auto it = ledgers_.find(ledger);
    if (it != ledgers_.end()) {
        for (const auto& [id, buf] : it->second.entries) storedBytes_ -= buf.size();
        ledgers_.erase(it);
    }
    deleted_.insert(ledger);
    // The entry-log GC: durable records of a deleted ledger are reclaimed.
    std::erase_if(journalRecords_, [ledger](const JournalRecord& r) {
        return r.ledger == ledger;
    });
}

void Bookie::crash() {
    if (!alive_) return;
    alive_ = false;
    ++crashCount_;
    mCrashes_.inc();
    flush_.reset();  // the in-flight group is lost; crash() fails its acks
    flushInFlight_ = false;
    // Queued and mid-flush adds never reach the journal; their clients see
    // Unavailable (in practice the TCP connection resets).
    auto doomed = std::move(pending_);
    pending_.clear();
    auto doomedAcks = std::move(inFlightAcks_);
    inFlightAcks_.clear();
    ledgers_.clear();
    storedBytes_ = 0;
    for (auto& add : doomed) {
        add.done.setError(Status(Err::Unavailable, "bookie crashed"));
    }
    for (auto& p : doomedAcks) {
        p.setError(Status(Err::Unavailable, "bookie crashed"));
    }
    PLOG_INFO("bookie", "host %d crashed (%llu journaled records survive)", host_,
              static_cast<unsigned long long>(journalRecords_.size()));
}

void Bookie::restart() {
    if (alive_) return;
    alive_ = true;
    mRestarts_.inc();
    rebuildFromJournal();
    PLOG_INFO("bookie", "host %d restarted: %llu entries recovered", host_,
              static_cast<unsigned long long>(journalRecords_.size()));
}

void Bookie::rebuildFromJournal() {
    ledgers_.clear();
    storedBytes_ = 0;
    for (const auto& rec : journalRecords_) {
        if (deleted_.contains(rec.ledger)) continue;
        auto& state = ledgers_[rec.ledger];
        auto [it, inserted] = state.entries.emplace(rec.entry, rec.data);
        if (inserted) storedBytes_ += rec.data.size();
    }
    // Fence markers are durable metadata; re-apply them.
    for (LedgerId id : fenced_) {
        if (!deleted_.contains(id)) ledgers_[id].fenced = true;
    }
}

}  // namespace pravega::wal
