// LedgerHandle: client-side replicated append to an ensemble of bookies.
//
// Implements the BookKeeper write protocol the paper relies on: an entry is
// sent to `writeQuorum` bookies and acknowledged once `ackQuorum` of them
// confirm it AND all earlier entries are confirmed (entries acknowledge in
// order, which gives the log its prefix-durability property). Fencing makes
// a new owner able to exclude the old one (§4.4).
//
// Bookie-failure handling (the BK availability mechanism, [40]): when a
// write-set bookie fails an add with a connection-level error or misses the
// per-entry write timeout, the handle performs an ENSEMBLE CHANGE — it asks
// the registry's bookie pool for a replacement, swaps it into the ensemble
// (updating the ledger metadata), and re-replicates every entry the failed
// bookie had not acknowledged. If no replacement exists the handle degrades
// to the surviving bookies, which keeps appends available as long as at
// least ackQuorum of them remain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"
#include "sim/future.h"
#include "sim/lifetime.h"
#include "sim/network.h"
#include "wal/bookie.h"
#include "wal/types.h"

namespace pravega::wal {

/// Ledger metadata store (stand-in for the ZooKeeper-kept BK metadata).
struct LedgerInfo {
    /// Current write ensemble (mutated by ensemble changes).
    std::vector<Bookie*> ensemble;
    /// Every bookie that ever belonged to the ensemble — a flat stand-in
    /// for BK's segmented metadata: older entries may live only on
    /// since-replaced members, so recovery fences and reads all of them.
    std::vector<Bookie*> everMembers;
    bool closed = false;
    EntryId lastEntry = kNoEntry;
};

class LedgerRegistry {
public:
    LedgerId create(std::vector<Bookie*> ensemble) {
        LedgerId id = nextId_++;
        ledgers_[id] = LedgerInfo{ensemble, std::move(ensemble), false, kNoEntry};
        return id;
    }
    LedgerInfo* find(LedgerId id) {
        auto it = ledgers_.find(id);
        return it == ledgers_.end() ? nullptr : &it->second;
    }
    void close(LedgerId id, EntryId lastEntry) {
        if (auto* info = find(id)) {
            info->closed = true;
            info->lastEntry = lastEntry;
        }
    }
    void erase(LedgerId id) { ledgers_.erase(id); }

    /// The full bookie fleet, from which ensemble changes draw
    /// replacements. Empty pool → no replacements (degrade-only).
    void setBookiePool(std::vector<Bookie*> pool) { pool_ = std::move(pool); }
    const std::vector<Bookie*>& bookiePool() const { return pool_; }

private:
    LedgerId nextId_ = 1;
    std::map<LedgerId, LedgerInfo> ledgers_;
    std::vector<Bookie*> pool_;
};

class LedgerHandle {
public:
    /// Per-entry request/response framing on the wire.
    static constexpr uint64_t kWireOverhead = 64;

    LedgerHandle(sim::Core& exec, sim::Network& net, sim::HostId clientHost,
                 LedgerRegistry& registry, LedgerId id, ReplicationConfig repl);

    LedgerHandle(const LedgerHandle&) = delete;
    LedgerHandle& operator=(const LedgerHandle&) = delete;

    LedgerId id() const { return id_; }

    /// Replicated append; completes with the entry id once ack-quorum
    /// durable and all prior entries confirmed. The chain is shared with
    /// every write-set bookie by reference — no payload copies.
    sim::Future<EntryId> addEntry(BufChain data);

    /// Closes the ledger for appends and records the last confirmed entry.
    void close();

    EntryId lastAddConfirmed() const { return lastAddConfirmed_; }
    uint64_t appendedBytes() const { return appendedBytes_; }
    bool closed() const { return closed_; }

    /// Bytes not yet confirmed by the ACK quorum (client flow control).
    uint64_t unackedBytes() const { return unackedBytes_; }

    /// Bytes not yet confirmed by the FULL write quorum. The BK client must
    /// retain these for possible re-replication; a persistently slow bookie
    /// makes this grow without bound — the §5.6 Pulsar OOM mechanism that
    /// ackQuorum == writeQuorum avoids (at a throughput cost).
    uint64_t unackedToFullQuorumBytes() const { return fullUnackedBytes_; }

    /// Ensemble changes performed by this handle (bookie failures handled).
    uint64_t ensembleChanges() const { return ensembleChanges_; }

    /// Recovery open: fences the ensemble, determines the last recoverable
    /// entry (max over fence responses), closes the ledger, and returns its
    /// entries in order. Used by a new container owner (§4.4).
    static Result<std::vector<SharedBuf>> recoverAndClose(LedgerRegistry& registry, LedgerId id);

    /// True while appends are awaiting bookie responses (the owner must
    /// keep the handle alive until drained).
    bool hasInFlight() const { return !inFlight_.empty(); }

private:
    struct InFlight {
        BufChain data;  // retained for re-replication
        /// Bookies this entry targets. A vector in ensemble order — NOT a
        /// set keyed on pointers — so iteration (send order, suspect
        /// order) is deterministic across runs; replay depends on it.
        std::vector<Bookie*> writeSet;
        std::set<Bookie*> ackedBy;  // membership/size queries only
        uint64_t bytes = 0;
        bool failed = false;
        bool confirmed = false;     // ack quorum reached, future completed
        bool fullReleased = false;  // full write set acked; buffer released
        Status error;
        sim::Promise<EntryId> done;
    };

    void sendToBookie(Bookie* bookie, EntryId entry, const BufChain& data);
    void armTimeout(EntryId entry);
    void onAck(Bookie* bookie, EntryId entry, const Result<sim::Unit>& r);
    void handleBookieFailure(Bookie* bad);
    void drainConfirmed();
    bool fullyReplicated(const InFlight& inf) const;

    sim::Core& exec_;
    sim::Network& net_;
    sim::HostId clientHost_;
    LedgerRegistry& registry_;
    LedgerId id_;
    ReplicationConfig repl_;
    std::vector<Bookie*> ensemble_;
    /// Bookies this handle has declared dead (never re-trusted; a restarted
    /// bookie rejoins via new ledgers' ensembles).
    std::set<Bookie*> failedBookies_;

    EntryId nextEntry_ = 0;
    EntryId lastAddConfirmed_ = kNoEntry;
    std::map<EntryId, InFlight> inFlight_;
    uint64_t appendedBytes_ = 0;
    uint64_t unackedBytes_ = 0;
    uint64_t fullUnackedBytes_ = 0;
    uint64_t ensembleChanges_ = 0;
    bool closed_ = false;
    bool registryClosed_ = false;
    bool fencedOut_ = false;
    sim::Lifetime life_;
};

}  // namespace pravega::wal
