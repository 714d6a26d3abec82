// Micro-benchmarks for the core data structures (the Fig 4 block cache, the
// AVL read index, serialization, the obs:: latency histogram) plus a
// deterministic virtual-time core scenario, the LTS codec kernel row, the
// LTS chunk-fill row and the segment-count scaling row of one container.
//
// The scenario runs first and emits BENCH_micro_core.json through
// bench::Report: every value in it derives from virtual time and seeded
// randomness, so two same-seed runs write byte-identical JSON (and, with
// BENCH_DUMP_METRICS=1, print byte-identical obs:: registry dumps) — the
// acceptance check for the metrics determinism contract. The wall-clock
// google-benchmark suites run afterwards (skipped under BENCH_SMOKE=1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>

#include "bench/harness/adapters.h"
#include "bench/harness/report.h"
#include "common/buf_stats.h"
#include "common/hash.h"
#include "common/serde.h"
#include "lts/chunk_codec.h"
#include "lts/chunk_storage.h"
#include "segmentstore/avl_map.h"
#include "segmentstore/cache.h"
#include "segmentstore/container.h"
#include "sim/network.h"
#include "sim/random.h"
#include "wal/bookie.h"

using namespace pravega;
using namespace pravega::segmentstore;

// Counting replacement of the global operator new: the engine row reports
// heap allocations per client event of the core scenario. The array and
// nothrow forms call these; the aligned forms are not counted.
namespace {
uint64_t gHeapAllocs = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined new with free().
__attribute__((noinline)) void* operator new(std::size_t n) {
    ++gHeapAllocs;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

BlockCache::Config cacheCfg() {
    BlockCache::Config cfg;
    cfg.blockSize = 4096;
    cfg.blocksPerBuffer = 512;
    cfg.maxBuffers = 512;  // 1 GB cap
    return cfg;
}

void BM_CacheInsertSmall(benchmark::State& state) {
    BlockCache cache(cacheCfg());
    const BufChain data(Bytes(static_cast<size_t>(state.range(0)), 0xAB));
    std::vector<CacheAddress> addrs;
    for (auto _ : state) {
        auto a = cache.insert(data);
        if (!a.isOk()) {
            for (CacheAddress x : addrs) cache.remove(x);
            addrs.clear();
            a = cache.insert(data);
        }
        addrs.push_back(a.value());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CacheInsertSmall)->Arg(100)->Arg(1024)->Arg(65536);

void BM_CacheAppendChain(benchmark::State& state) {
    // The Fig 4 design point: O(1) appends via the last-block address.
    BlockCache cache(cacheCfg());
    const BufChain data(Bytes(static_cast<size_t>(state.range(0)), 0xCD));
    auto addr = cache.insert(data).value();
    uint64_t appended = 0;
    for (auto _ : state) {
        auto r = cache.append(addr, data);
        if (r.isOk()) {
            addr = r.value();
        } else {
            cache.remove(addr);
            addr = cache.insert(data).value();
        }
        appended += data.size();
    }
    state.SetBytesProcessed(static_cast<int64_t>(appended));
}
BENCHMARK(BM_CacheAppendChain)->Arg(100)->Arg(4096);

void BM_CacheGet(benchmark::State& state) {
    BlockCache cache(cacheCfg());
    const BufChain data(Bytes(static_cast<size_t>(state.range(0)), 0xEF));
    auto addr = cache.insert(data).value();
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(addr));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CacheGet)->Arg(1024)->Arg(65536);

void BM_AvlInsert(benchmark::State& state) {
    AvlMap<int64_t, int64_t> tree;
    int64_t k = 0;
    for (auto _ : state) {
        tree.insert(k, k);
        k += 4096;  // read-index pattern: monotonically increasing offsets
        if (tree.size() > 100000) tree.clear();
    }
}
BENCHMARK(BM_AvlInsert);

void BM_AvlFloorLookup(benchmark::State& state) {
    AvlMap<int64_t, int64_t> tree;
    for (int64_t i = 0; i < state.range(0); ++i) tree.insert(i * 4096, i);
    sim::Rng rng(1);
    for (auto _ : state) {
        int64_t key = static_cast<int64_t>(rng.nextBounded(
            static_cast<uint64_t>(state.range(0)) * 4096));
        benchmark::DoNotOptimize(tree.floorEntry(key));
    }
}
BENCHMARK(BM_AvlFloorLookup)->Arg(1024)->Arg(65536);

void BM_StdMapFloorLookup(benchmark::State& state) {
    // Comparison point for the custom AVL tree.
    std::map<int64_t, int64_t> tree;
    for (int64_t i = 0; i < state.range(0); ++i) tree[i * 4096] = i;
    sim::Rng rng(1);
    for (auto _ : state) {
        int64_t key = static_cast<int64_t>(rng.nextBounded(
            static_cast<uint64_t>(state.range(0)) * 4096));
        auto it = tree.upper_bound(key);
        if (it != tree.begin()) --it;
        benchmark::DoNotOptimize(it);
    }
}
BENCHMARK(BM_StdMapFloorLookup)->Arg(1024)->Arg(65536);

void BM_SerdeWriteOps(benchmark::State& state) {
    Bytes payload(100, 0x11);
    for (auto _ : state) {
        Bytes out;
        BinaryWriter w(out);
        w.u8(1);
        w.u64(42);
        w.i64(12345678);
        w.bytes(BytesView(payload));
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SerdeWriteOps);

void BM_HistogramRecord(benchmark::State& state) {
    obs::LatencyHistogram hist;
    sim::Rng rng(1);
    for (auto _ : state) {
        hist.record(static_cast<sim::Duration>(rng.nextBounded(100000000)));
    }
    benchmark::DoNotOptimize(hist.percentileMs(95));
}
BENCHMARK(BM_HistogramRecord);

/// Best-of-3 wall seconds of `fn`.
template <typename Fn>
double bestOf3(Fn&& fn) {
    double best = 0;
    for (int i = 0; i < 3; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const double sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (i == 0 || sec < best) best = sec;
    }
    return best;
}

/// Codec kernel row: the LTS flush path's CRC-32 and block encoder on an
/// 8 MB payload that stores about 2:1 (64 seeded random bytes, then a
/// 64-byte run, repeated). Rates are wall-clock MB/s (2^20 bytes), best of
/// 3; the stored size and CRC are deterministic. crc32_folded names the
/// CRC kernel that ran (1 = PCLMULQDQ folding, 0 = slicing-by-16), fixed
/// for one host. crc32_table_mbps times the slicing-by-16 kernel on the
/// same payload in the same process, so crc32_mbps over it is a
/// host-independent measure of what folding buys.
void addCodecRow(pravega::bench::Report& report) {
    constexpr size_t kBytes = 8u << 20;
    Bytes payload(kBytes);
    sim::Rng rng(42);
    for (size_t i = 0; i < kBytes; i += 128) {
        for (size_t k = 0; k < 64; ++k) payload[i + k] = static_cast<uint8_t>(rng.next());
        std::fill_n(payload.begin() + static_cast<ptrdiff_t>(i + 64), 64,
                    static_cast<uint8_t>(rng.next()));
    }
    uint32_t crc = 0;
    size_t stored = 0;
    const double crcSec = bestOf3([&] { crc = crc32(payload.data(), payload.size()); });
    uint32_t tableCrc = 0;
    const double tableSec = bestOf3(
        [&] { tableCrc = pravega::detail::crc32Table(payload.data(), payload.size()); });
    if (tableCrc != crc) {
        std::fprintf(stderr, "crc32 kernels disagree: %08x vs table %08x\n", crc, tableCrc);
        std::exit(1);
    }
    Bytes scratch;
    const double encodeSec = bestOf3(
        [&] { stored = lts::ChunkCodec::encodeBlock(BytesView(payload), scratch).size(); });
    const double mb = static_cast<double>(kBytes) / (1 << 20);
    report.section("codec: LTS block CRC-32 + RLE encode kernels");
    report.addCustom("codec",
                     {{"crc32_mbps", crcSec > 0 ? mb / crcSec : 0.0},
                      {"crc32_table_mbps", tableSec > 0 ? mb / tableSec : 0.0},
                      {"encode_mbps", encodeSec > 0 ? mb / encodeSec : 0.0},
                      {"stored_bytes", static_cast<double>(stored)},
                      {"crc32", static_cast<double>(crc)},
                      {"crc32_folded", pravega::detail::crc32Folds() ? 1.0 : 0.0}},
                     nullptr,
                     "MB/s columns are wall-clock; stored_bytes and crc32 are deterministic, "
                     "crc32_folded is fixed per host");
}

/// Fills one fresh InMemoryChunkStorage chunk to `bytes` in 4 KB appends
/// of two 2 KB fragments (the storage writer's aggregate shape); returns
/// the stored byte count.
uint64_t fillChunk(size_t bytes) {
    constexpr size_t kAppend = 4096;
    const SharedBuf payload{Bytes(kAppend, 0x6C)};
    lts::InMemoryChunkStorage store;
    store.create("chunk");
    for (size_t filled = 0; filled < bytes; filled += kAppend) {
        BufChain chain(payload.slice(0, kAppend / 2));
        chain.append(payload.slice(kAppend / 2, kAppend / 2));
        store.append("chunk", std::move(chain));
    }
    return store.totalBytes();
}

/// LTS append row: wall ns per byte to fill a 256 KB and a 4 MB chunk
/// (best of 3 each) and their ratio. A store that copies the whole chunk
/// on every append costs O(chunk) per byte, a ratio near 16; an
/// append-only one stays near 1.
void addLtsAppendRow(pravega::bench::Report& report) {
    constexpr size_t kSmall = 256u << 10;
    constexpr size_t kLarge = 4u << 20;
    uint64_t stored = 0;
    const double smallSec = bestOf3([&] { fillChunk(kSmall); });
    const double largeSec = bestOf3([&] { stored = fillChunk(kLarge); });
    const double smallNs = smallSec * 1e9 / kSmall;
    const double largeNs = largeSec * 1e9 / kLarge;
    report.section("lts append: fill one in-memory chunk in 4 KB two-fragment appends");
    report.addCustom("lts-append",
                     {{"stored_bytes", static_cast<double>(stored)},
                      {"ns_per_byte_256kb", smallNs},
                      {"ns_per_byte_4mb", largeNs},
                      {"lts_append_ratio", smallNs > 0 ? largeNs / smallNs : 0.0}},
                     nullptr, "ns columns and the ratio are wall-clock; stored_bytes is deterministic");
}

/// One container ingesting the same appends spread over `segments` segments.
struct ScalingRun {
    uint64_t acked = 0;
    uint64_t desEvents = 0;
    uint64_t flushedBytes = 0;
    double wallSec = 0;
};

ScalingRun runSegmentScaling(uint32_t segments) {
    constexpr int kIngestMs = 1000;
    constexpr int kAppendsPerMs = 16;
    ScalingRun run;
    sim::Machine exec;
    sim::Network net{exec, sim::Link::Config{}};
    std::vector<std::unique_ptr<sim::DiskModel>> disks;
    std::vector<std::unique_ptr<wal::Bookie>> bookies;
    std::vector<wal::Bookie*> bookiePtrs;
    for (int i = 0; i < 3; ++i) {
        disks.push_back(std::make_unique<sim::DiskModel>(exec, sim::DiskModel::Config{}));
        bookies.push_back(std::make_unique<wal::Bookie>(exec, 100 + i, *disks.back(),
                                                        wal::Bookie::Config{}));
        bookiePtrs.push_back(bookies.back().get());
    }
    wal::LedgerRegistry registry;
    wal::LogMetadataStore logMeta;
    lts::InMemoryChunkStorage lts;
    BlockCache cache{BlockCache::Config{}};
    SegmentContainer container(exec, 1, wal::WalEnv{exec, net, registry, logMeta, bookiePtrs},
                               /*host=*/1, lts, cache, ContainerConfig{});
    if (!container.start().isOk()) std::exit(1);
    for (uint32_t s = 1; s <= segments; ++s) {
        container.createSegment(makeSegmentId(0, s), "scaling/" + std::to_string(s));
    }
    exec.runUntilIdle();

    // 256 B appends round-robin over the segments at 16 per ms of virtual
    // time for 1 s, then 1 s for the storage writer to drain the tail.
    const SharedBuf payload{Bytes(256, 0x5A)};
    const uint64_t eventsBefore = exec.executedEvents();
    const auto wallStart = std::chrono::steady_clock::now();
    uint32_t next = 0;
    for (int ms = 0; ms < kIngestMs; ++ms) {
        for (int i = 0; i < kAppendsPerMs; ++i) {
            container.append(makeSegmentId(0, next++ % segments + 1), payload)
                .onComplete([&run](const Result<int64_t>& r) {
                    if (r.isOk()) ++run.acked;
                });
        }
        exec.runFor(sim::msec(1));
    }
    exec.runFor(sim::sec(1));
    run.wallSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
    run.desEvents = exec.executedEvents() - eventsBefore;
    run.flushedBytes = container.storageWriter().flushedBytes();
    if (run.acked != static_cast<uint64_t>(kIngestMs) * kAppendsPerMs) {
        std::fprintf(stderr, "micro_core: scaling run acked %llu appends\n",
                     static_cast<unsigned long long>(run.acked));
        std::exit(1);
    }
    return run;
}

/// Fastest of 3 fresh runs, which must execute identical work.
ScalingRun bestScalingRun(uint32_t segments) {
    ScalingRun best = runSegmentScaling(segments);
    for (int i = 1; i < 3; ++i) {
        ScalingRun again = runSegmentScaling(segments);
        if (again.desEvents != best.desEvents) {
            std::fprintf(stderr, "micro_core: scaling replay at %u segments diverged\n", segments);
            std::exit(1);
        }
        best.wallSec = std::min(best.wallSec, again.wallSec);
    }
    return best;
}

/// Segment-count scaling row: wall ns per applied append at 16 and at 4096
/// segments on one container (same appends, best of 3 each) and their
/// ratio. Per-append storage-writer bookkeeping that walks every segment
/// shows up as a ratio well above 1.
void addSegmentScalingRow(pravega::bench::Report& report) {
    const ScalingRun small = bestScalingRun(16);
    const ScalingRun large = bestScalingRun(4096);
    const double smallNs = small.wallSec * 1e9 / static_cast<double>(small.acked);
    const double largeNs = large.wallSec * 1e9 / static_cast<double>(large.acked);
    report.section("segment scaling: one container, 16 vs 4096 segments, same appends");
    report.addCustom("segment-scaling",
                     {{"appends", static_cast<double>(small.acked)},
                      {"des_events_16seg", static_cast<double>(small.desEvents)},
                      {"des_events_4096seg", static_cast<double>(large.desEvents)},
                      {"flushed_bytes_16seg", static_cast<double>(small.flushedBytes)},
                      {"flushed_bytes_4096seg", static_cast<double>(large.flushedBytes)},
                      {"ns_per_append_16seg", smallNs},
                      {"ns_per_append_4096seg", largeNs},
                      {"segment_scaling_ratio", smallNs > 0 ? largeNs / smallNs : 0.0}},
                     nullptr, "ns columns and the ratio are wall-clock; the rest are deterministic");
}

/// One run of the core scenario in a fresh world.
struct Replay {
    std::unique_ptr<pravega::bench::PravegaWorld> world;
    pravega::bench::RunStats stats;
    uint64_t desEvents = 0;
    uint64_t bytesCopied = 0;
    uint64_t copyOps = 0;
    uint64_t storeCopied = 0;
    uint64_t storeZeroed = 0;
    uint64_t heapAllocs = 0;
    double wallSec = 0;
};

Replay replayScenario() {
    using namespace pravega::bench;
    PravegaOptions opt;
    opt.segments = 4;
    opt.numWriters = 2;
    opt.numReaders = 4;
    Replay r;
    r.world = makePravega(opt);

    WorkloadConfig w;
    w.eventsPerSec = 20'000;
    w.eventBytes = 1024;
    w.warmup = sim::msec(200);
    w.window = sim::sec(1);
    w.seed = 42;
    w = shrinkForSmoke(w);
    bufstats::reset();
    sim::Machine& exec = r.world->exec();
    const uint64_t eventsBefore = exec.executedEvents();
    const uint64_t allocsBefore = gHeapAllocs;
    const auto wallStart = std::chrono::steady_clock::now();
    r.stats = runOpenLoop(exec, r.world->producers, w);
    exec.runFor(sim::msec(200));  // drain tail deliveries
    r.wallSec = std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
    r.desEvents = exec.executedEvents() - eventsBefore;
    r.heapAllocs = gHeapAllocs - allocsBefore;
    r.bytesCopied = bufstats::bytesCopied;
    r.copyOps = bufstats::copyOps;
    r.storeCopied = bufstats::storeBytesCopied;
    r.storeZeroed = bufstats::storeBytesZeroed;
    return r;
}

/// Deterministic virtual-time scenario: a small Pravega deployment with
/// writers and tail readers, reported with the full obs:: registry.
void runDeterministicScenario() {
    using namespace pravega::bench;
    Report report("micro_core", "micro: deterministic core write/read scenario");
    report.section("core scenario: 4 segments, 2 writers, 4 tail readers, 1KB events");

    // The scenario runs ~60 ms of wall time, too short for one run to time
    // the engine on a loaded host: it is replayed in 3 fresh worlds and the
    // fastest replay is timed. The replays must execute identical work.
    Replay first = replayScenario();
    double wallSec = first.wallSec;
    for (int i = 1; i < 3; ++i) {
        Replay again = replayScenario();
        if (again.desEvents != first.desEvents) {
            std::fprintf(stderr, "micro_core: replay %d executed %llu DES events, replay 0 %llu\n",
                         i, static_cast<unsigned long long>(again.desEvents),
                         static_cast<unsigned long long>(first.desEvents));
            std::exit(1);
        }
        wallSec = std::min(wallSec, again.wallSec);
    }
    auto& world = first.world;
    report.add("core-scenario", first.stats, &world->exec().mergedMetrics());

    // Engine row: DES scheduler throughput (wall-clock, volatile — the
    // smoke determinism check scrubs events_per_sec) and the copy budget
    // (virtual-time deterministic). bytes_copied_per_event is the
    // buffer-abstraction bytes copied per CLIENT event: 1x the payload on
    // the append path (the framing copy) plus the tail readers' hand-out
    // copy (fetched bytes are adopted, not copied). The store_* columns
    // are the segment store's own payload bytes copied and zero-filled per
    // client event: the read-reply gather and in-memory LTS reads that span
    // extents (the cache and LTS hold slices of the appended bytes, so
    // appends add none). allocs_per_event is operator-new calls per client
    // event over the same replay (deterministic for one build).
    report.section("engine: DES event loop + copy budget");
    const double desEvents = static_cast<double>(first.desEvents);
    const double clientEvents = static_cast<double>(first.stats.sent > 0 ? first.stats.sent : 1);
    report.addCustom(
        "engine",
        {{"events", desEvents},
         {"events_per_sec", wallSec > 0 ? desEvents / wallSec : 0.0},
         {"bytes_copied_per_event", static_cast<double>(first.bytesCopied) / clientEvents},
         {"copy_ops_per_event", static_cast<double>(first.copyOps) / clientEvents},
         {"store_bytes_copied_per_event", static_cast<double>(first.storeCopied) / clientEvents},
         {"store_bytes_zeroed_per_event", static_cast<double>(first.storeZeroed) / clientEvents},
         {"allocs_per_event", static_cast<double>(first.heapAllocs) / clientEvents}},
        nullptr, "events/sec is wall-clock; copy and alloc columns are deterministic");
    addCodecRow(report);
    addLtsAppendRow(report);
    addSegmentScalingRow(report);
    report.finish();

    const char* dump = std::getenv("BENCH_DUMP_METRICS");
    if (dump != nullptr && dump[0] == '1') {
        std::printf("=== obs registry dump ===\n%s",
                    world->exec().mergedMetrics().dump().c_str());
        std::fflush(stdout);
    }
}

}  // namespace

int main(int argc, char** argv) {
    runDeterministicScenario();
    if (pravega::bench::smoke()) return 0;  // skip wall-clock microbenches in CI smoke
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
