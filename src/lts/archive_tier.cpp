#include "lts/archive_tier.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/hash.h"

namespace pravega::lts {

using sim::Future;
using sim::Unit;

ArchiveTierChunkStorage::ArchiveTierChunkStorage(sim::Core& exec, ChunkStorage& primary,
                                                 Config cfg)
    : exec_(exec),
      primary_(primary),
      cfg_(cfg),
      tape_(exec, cfg.tape),
      mMigrations_(exec.metrics().counter("lts.archive.migrations")),
      mMigratedBytes_(exec.metrics().counter("lts.archive.migrated_bytes")),
      mReads_(exec.metrics().counter("lts.archive.reads")),
      mReadBytes_(exec.metrics().counter("lts.archive.read_bytes")),
      mArchivedBytes_(exec.metrics().gauge("lts.archive.bytes")),
      mPrimaryBytes_(exec.metrics().gauge("lts.archive.primary_bytes")),
      scan_(exec, [this]() { scanNow(); }) {
    if (cfg_.scanInterval > 0) scan_.every(cfg_.scanInterval);
}

uint64_t ArchiveTierChunkStorage::cartridgeFor(const std::string& name) const {
    // Hash the "seg-<id>" prefix of the chunk name ("seg-<id>-<offset>", or
    // "seg-<id>-<offset>-c<gen>" once compacted), so one segment's chunks
    // land on one cartridge: catch-up reads pay one mount.
    size_t first = name.find('-');
    size_t second = first == std::string::npos ? first : name.find('-', first + 1);
    return fnv1a64(std::string_view(name).substr(0, second));
}

Future<Unit> ArchiveTierChunkStorage::create(const std::string& name) {
    return primary_.create(name).then([this, name](const Unit& u) {
        Meta& m = meta_[name];
        m.lastAppend = exec_.now();
        return u;
    });
}

Future<Unit> ArchiveTierChunkStorage::append(const std::string& name, BufChain data) {
    auto it = meta_.find(name);
    if (it == meta_.end()) {
        // Chunk predates this layer (mixed stack): pass through untouched.
        return primary_.append(name, std::move(data));
    }
    const uint64_t nbytes = data.size();
    it->second.lastAppend = exec_.now();
    if (it->second.archived) {
        // Rare append-after-migrate: the data lands on tape directly.
        auto stored = archMem_.append(name, std::move(data));
        // archMem_ is the always-ready InMemoryChunkStorage; the synchronous
        // bookkeeping below depends on that.
        assert(stored.isReady());
        if (!stored.result().isOk()) return stored;
        it->second.bytes += nbytes;
        archivedBytes_ += nbytes;
        mArchivedBytes_.set(static_cast<double>(archivedBytes_));
        return tape_.access(cartridgeFor(name), nbytes);
    }
    return primary_.append(name, std::move(data)).then([this, name, nbytes](const Unit& u) {
        auto mit = meta_.find(name);
        if (mit != meta_.end()) {
            mit->second.bytes += nbytes;
            primaryBytes_ += nbytes;
            mPrimaryBytes_.set(static_cast<double>(primaryBytes_));
        }
        return u;
    });
}

Future<SharedBuf> ArchiveTierChunkStorage::read(const std::string& name, uint64_t offset,
                                                uint64_t length) {
    auto it = meta_.find(name);
    if (it == meta_.end() || !it->second.archived) {
        return primary_.read(name, offset, length);
    }
    ++archReadOps_;
    mReads_.inc();
    auto data = archMem_.read(name, offset, length);
    // archMem_ is the always-ready InMemoryChunkStorage: resolving result()
    // here is only safe because the inner future can never be pending.
    assert(data.isReady());
    if (!data.result().isOk()) return data;
    // Charge the tape for the bytes actually returned (clamped, like every
    // other timed backend), then hand the caller the identical payload it
    // would have read from the primary tier — only the latency differs.
    uint64_t actual = data.result().value().size();
    mReadBytes_.inc(actual);
    return tape_.access(cartridgeFor(name), actual)
        .then([data](const Unit&) { return data.result().value(); });
}

Future<Unit> ArchiveTierChunkStorage::remove(const std::string& name) {
    auto it = meta_.find(name);
    if (it == meta_.end()) return primary_.remove(name);
    const bool archived = it->second.archived;
    const uint64_t nbytes = it->second.bytes;
    // Erase first: an in-flight migration re-checks meta_ at each step and
    // aborts (cleaning up its archive copy) when the chunk is gone.
    meta_.erase(it);
    if (archived) {
        archivedBytes_ -= std::min(archivedBytes_, nbytes);
        --archivedChunks_;
        mArchivedBytes_.set(static_cast<double>(archivedBytes_));
        return archMem_.remove(name);
    }
    primaryBytes_ -= std::min(primaryBytes_, nbytes);
    mPrimaryBytes_.set(static_cast<double>(primaryBytes_));
    return primary_.remove(name);
}

Result<ChunkInfo> ArchiveTierChunkStorage::stat(const std::string& name) const {
    auto it = meta_.find(name);
    if (it == meta_.end()) return primary_.stat(name);
    if (it->second.archived) return archMem_.stat(name);
    return primary_.stat(name);
}

void ArchiveTierChunkStorage::scanNow() {
    const sim::TimePoint now = exec_.now();
    // Projected primary footprint: shrinks as migrations are issued so the
    // size policy stops once the batch would bring us under the cap.
    uint64_t projected = primaryBytes_;
    std::vector<std::string> picks;
    // Age policy first (name order: deterministic; every idle chunk is
    // eligible). Not-yet-idle chunks become size-pressure candidates unless
    // they were appended within pressureMinIdle — an actively-written tail
    // chunk must never be a migration victim.
    std::vector<std::pair<sim::TimePoint, std::string>> candidates;
    for (auto& [name, m] : meta_) {
        if (m.archived || m.migrating || m.bytes == 0) continue;
        const sim::Duration idleFor = now - m.lastAppend;
        if (idleFor >= cfg_.minIdle) {
            if (static_cast<int>(picks.size()) < cfg_.maxMigrationsPerScan) {
                picks.push_back(name);
                projected -= std::min(projected, m.bytes);
            }
        } else if (idleFor >= cfg_.pressureMinIdle) {
            candidates.emplace_back(m.lastAppend, name);
        }
    }
    // Size policy: still over the cap after the age picks, so migrate the
    // least-recently-appended candidates (oldest lastAppend first, name as
    // the deterministic tiebreak) until projected back under.
    if (projected > cfg_.primaryCapacityBytes) {
        std::sort(candidates.begin(), candidates.end());
        for (const auto& [when, name] : candidates) {
            if (static_cast<int>(picks.size()) >= cfg_.maxMigrationsPerScan) break;
            if (projected <= cfg_.primaryCapacityBytes) break;
            picks.push_back(name);
            projected -= std::min(projected, meta_[name].bytes);
        }
    }
    for (const auto& name : picks) migrate(name);
}

void ArchiveTierChunkStorage::migrate(const std::string& name) {
    auto it = meta_.find(name);
    if (it == meta_.end() || it->second.archived || it->second.migrating) return;
    const sim::TimePoint startedAt = exec_.now();
    // A chunk appended this very tick is not quiescent; the snapshot below
    // could race the append's completion. Skip — a later scan retries.
    if (it->second.lastAppend >= startedAt) return;
    it->second.migrating = true;
    const uint64_t nbytes = it->second.bytes;
    primary_.read(name, 0, nbytes).onComplete([this, name, nbytes, startedAt](
                                                  const Result<SharedBuf>& r) {
        auto mit = meta_.find(name);
        if (mit == meta_.end()) return;  // removed mid-migration
        if (!r.isOk() || r.value().size() != nbytes || mit->second.bytes != nbytes ||
            mit->second.lastAppend >= startedAt) {
            // Read failed, or an append landed after the snapshot was taken
            // (appends keep routing to the primary tier while migrating):
            // abort and retry on a later scan.
            mit->second.migrating = false;
            return;
        }
        archMem_.create(name);
        archMem_.append(name, BufChain(r.value()));
        // The archive copy is durable once the tape write finishes; only
        // then does routing flip and the primary copy get dropped.
        tape_.access(cartridgeFor(name), nbytes).onComplete([this, name, nbytes,
                                                             startedAt](
                                                                const Result<Unit>&) {
            auto mit2 = meta_.find(name);
            if (mit2 == meta_.end()) {
                archMem_.remove(name);  // chunk removed while we copied
                return;
            }
            if (mit2->second.bytes != nbytes || mit2->second.lastAppend >= startedAt) {
                // An append raced the tape write; the archive copy holds a
                // stale snapshot. Abort: drop the copy, keep primary routing
                // (and the primary bytes), retry once the chunk is idle.
                // Without this check the remove() below would destroy the
                // newly appended bytes.
                archMem_.remove(name);
                mit2->second.migrating = false;
                return;
            }
            mit2->second.archived = true;
            mit2->second.migrating = false;
            primaryBytes_ -= std::min(primaryBytes_, nbytes);
            archivedBytes_ += nbytes;
            ++archivedChunks_;
            mMigrations_.inc();
            mMigratedBytes_.inc(nbytes);
            mArchivedBytes_.set(static_cast<double>(archivedBytes_));
            mPrimaryBytes_.set(static_cast<double>(primaryBytes_));
            primary_.remove(name);  // best-effort; data already re-homed
        });
    });
}

}  // namespace pravega::lts
