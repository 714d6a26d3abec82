// LogClient: the durable-log abstraction segment containers write to.
//
// "WAL logs in Pravega are a metadata abstraction built on top of Apache
// Bookkeeper ledgers" (§4.1): a log is an ordered sequence of ledgers; the
// log rolls over to a fresh ledger as it grows, truncation deletes whole
// ledgers (§4.3), and a new owner fences all of the log's ledgers during
// recovery so the previous owner can no longer write (§4.4).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/buf_chain.h"
#include "common/bytes.h"
#include "common/result.h"
#include "sim/future.h"
#include "sim/network.h"
#include "wal/ledger_handle.h"
#include "wal/types.h"

namespace pravega::wal {

/// Durable per-log ledger lists (ZooKeeper-kept in the real system).
struct LogMetadataStore {
    struct LedgerRef {
        LedgerId id;
        int64_t firstSequence;
    };
    std::map<uint64_t, std::vector<LedgerRef>> logs;
};

/// Everything a LogClient needs from its environment.
struct WalEnv {
    sim::Core& exec;
    sim::Network& net;
    LedgerRegistry& registry;
    LogMetadataStore& logMeta;
    std::vector<Bookie*> bookies;
};

class LogClient {
public:
    struct Config {
        uint64_t rolloverBytes = 64ULL * 1024 * 1024;
        ReplicationConfig repl;
    };

    LogClient(WalEnv env, sim::HostId clientHost, uint64_t logId, Config cfg);

    /// Takes ownership of the log: fences all existing ledgers, returns
    /// every surviving entry in order, and opens a fresh ledger for writes.
    /// Must be called (even on a brand-new log) before `append`.
    Result<std::vector<std::pair<LogAddress, SharedBuf>>> recover();

    /// Ordered durable append. Completions are delivered in sequence order
    /// even across ledger rollovers. Takes a fragment chain; payload bytes
    /// are shared with the caller, never copied.
    sim::Future<LogAddress> append(BufChain data);

    /// Deletes all ledgers that lie entirely at or before `upTo`.
    void truncate(LogAddress upTo);

    int64_t nextSequence() const { return nextSequence_; }
    size_t ledgerCount() const;

    /// Cumulative ensemble changes across all this log's ledger handles
    /// (bookie failures survived without losing availability).
    uint64_t ensembleChanges() const {
        uint64_t total = ensembleChangesRetired_;
        for (const auto& h : retired_) total += h->ensembleChanges();
        if (current_) total += current_->ensembleChanges();
        return total;
    }

private:
    std::vector<Bookie*> pickEnsemble() const;
    void rollover();
    void deliverInOrder(int64_t seq, Result<LogAddress> result);

    WalEnv env_;
    sim::HostId clientHost_;
    uint64_t logId_;
    Config cfg_;

    std::unique_ptr<LedgerHandle> current_;
    /// Rolled-over handles kept alive until their in-flight appends drain.
    std::vector<std::unique_ptr<LedgerHandle>> retired_;
    int64_t nextSequence_ = 0;
    bool initialized_ = false;
    uint64_t ensembleChangesRetired_ = 0;

    // In-order completion gate across ledgers: promises are resolved
    // strictly by sequence, holding later completions until earlier ones.
    int64_t nextToDeliver_ = 0;
    std::map<int64_t, sim::Promise<LogAddress>> waiting_;
    std::map<int64_t, Result<LogAddress>> completed_;
};

}  // namespace pravega::wal
