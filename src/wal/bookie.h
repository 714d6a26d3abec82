// Bookie: the BookKeeper storage server (§2.2, [40]).
//
// A bookie journals every add-entry request to a dedicated drive before
// acknowledging, and opportunistically groups concurrent requests into one
// journal write ("third level of aggregation", §4.1): while a journal flush
// is in flight, new requests accumulate and are flushed together when it
// completes. Entries are also kept in an in-memory ledger index for reads
// and ledger recovery (the entry-log device is not on the ack path and is
// not modeled; see DESIGN.md).
//
// Chaos semantics: a bookie can crash and restart. While crashed every RPC
// fails with Unavailable. Restart replays the journal: entries whose
// group-commit completed before the crash are recovered; entries that were
// only in memory (queued or mid-flush) are lost — which is exactly why the
// client ack-quorum exists. Fence and delete markers are treated as durable
// metadata (ZooKeeper-backed in real BK) and survive crashes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/models.h"
#include "sim/network.h"
#include "wal/types.h"

namespace pravega::wal {

class Bookie {
public:
    struct Config {
        /// Journal fsync before ack (default on; Fig 5's Pravega "no flush"
        /// ablation turns this off).
        bool journalSync = true;
        /// Per-entry journal record overhead (headers, checksums).
        uint64_t entryOverheadBytes = 32;
        /// Upper bound on one journal group-commit write.
        uint64_t maxGroupBytes = 4 * 1024 * 1024;
        /// Per-entry journal processing (header, checksum, index update).
        /// Thin per-partition entries (Pulsar-style) pay this at high rates;
        /// multiplexed 1MB frames (Pravega containers) amortize it — the
        /// paper's §6(ii) multiplexing argument.
        sim::Duration perEntryLatency = sim::usec(4);
    };

    Bookie(sim::Core& exec, sim::HostId host, sim::DiskModel& journalDrive, Config cfg);

    sim::HostId host() const { return host_; }

    /// Journals and stores one entry (a fragment chain shared with the
    /// sender — stored by reference, no payload copy). Completes after the
    /// entry is durable (per `journalSync`). Rejects writes to fenced or
    /// deleted ledgers.
    sim::Future<sim::Unit> addEntry(LedgerId ledger, EntryId entry, BufChain data);

    /// Fences a ledger: no further adds accepted. Returns the last entry id
    /// this bookie has (for recovery). Idempotent.
    Result<EntryId> fenceLedger(LedgerId ledger);

    /// Recovery/read path: linearizes the stored chain (the one place a
    /// WAL entry is flattened; cold by design).
    Result<SharedBuf> readEntry(LedgerId ledger, EntryId entry) const;
    Result<EntryId> lastEntry(LedgerId ledger) const;

    /// Drops all entries of a ledger (WAL truncation deletes ledgers, §4.3).
    void deleteLedger(LedgerId ledger);

    // ---- chaos: crash / restart ----------------------------------------

    /// Hard crash: in-memory state is discarded, queued and mid-flush adds
    /// fail with Unavailable, and every RPC is rejected until restart.
    void crash();

    /// Restart after a crash: rebuilds the ledger index by replaying the
    /// journal (only group-commits that completed before the crash).
    void restart();

    bool alive() const { return alive_; }
    uint64_t crashCount() const { return crashCount_; }

    uint64_t storedBytes() const { return storedBytes_; }

private:
    struct PendingAdd {
        LedgerId ledger;
        EntryId entry;
        BufChain data;
        uint64_t journalBytes;
        sim::Promise<sim::Unit> done;
    };
    struct LedgerState {
        std::map<EntryId, BufChain> entries;
        bool fenced = false;
    };
    /// One durable journal record (replayed on restart).
    struct JournalRecord {
        LedgerId ledger;
        EntryId entry;
        BufChain data;
    };

    void maybeStartFlush();
    void rebuildFromJournal();

    sim::Core& exec_;
    sim::HostId host_;
    sim::DiskModel& journal_;
    Config cfg_;
    uint64_t journalFileId_;

    std::deque<PendingAdd> pending_;
    bool flushInFlight_ = false;
    /// Acks owed by the flush currently on the disk; kept out of the disk
    /// callback so crash() can fail them (connection reset) instead of
    /// leaving the clients' futures dangling forever.
    std::vector<sim::Promise<sim::Unit>> inFlightAcks_;
    std::map<LedgerId, LedgerState> ledgers_;
    /// Durable metadata: survives crashes (ZooKeeper-backed in real BK).
    std::set<LedgerId> deleted_;
    std::set<LedgerId> fenced_;
    /// Durable journal contents: records land here only when their
    /// group-commit disk write completes.
    std::vector<JournalRecord> journalRecords_;
    uint64_t storedBytes_ = 0;

    bool alive_ = true;
    uint64_t crashCount_ = 0;

    // World-aggregate bookie metrics (all bookies share the named series).
    obs::Counter& mAdds_;
    obs::Counter& mAddBytes_;
    obs::Counter& mRejectUnavailable_;
    obs::Counter& mRejectFenced_;
    obs::Counter& mCrashes_;
    obs::Counter& mRestarts_;
    obs::Counter& mFlushes_;
    obs::LatencyHistogram& mGroupBytes_;
    obs::LatencyHistogram& mGroupEntries_;
    obs::LatencyHistogram& mSyncNs_;

    sim::Lifetime flush_;  // the in-flight group commit; reset by crash()
};

}  // namespace pravega::wal
