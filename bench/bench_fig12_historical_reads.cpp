// Figure 12: historical (catch-up) read performance (§5.7).
//
// Writers push 100 MB/s of 10KB events into a 16-segment stream until a
// backlog accumulates; readers are then released at the stream head and
// must catch up while writers continue. Paper shapes: Pravega reads
// historical data from LTS with PARALLEL chunk reads, peaking well above
// the write rate (731 MB/s in the paper) and catches up; Pulsar's tiered
// reads never exceed the write rate, so it cannot drain the backlog.
// (Backlog scaled from the paper's 100 GB to 3 GB: in-memory substrate.)
#include "bench/harness/adapters.h"
#include "bench/harness/report.h"
#include "common/hash.h"

using namespace pravega;
using namespace pravega::bench;

namespace {
constexpr double kWriteMBps = 100.0;
constexpr uint32_t kEventBytes = 10 * 1024;
constexpr int kSegments = 16;

uint64_t backlogBytes() {
    return smoke() ? 96ULL * 1024 * 1024 : 3ULL * 1024 * 1024 * 1024;
}
int maxSeconds() { return smoke() ? 8 : 60; }

/// Single-reader catch-up backlog (smaller: one reader drains it alone).
uint64_t singleBacklogBytes() {
    return smoke() ? 32ULL * 1024 * 1024 : 256ULL * 1024 * 1024;
}

/// Drives writers at the fixed rate until `until` (virtual time).
template <typename World>
void driveWriters(World& world, sim::Rng& rng, sim::TimePoint until) {
    double perTick = kWriteMBps * 1024 * 1024 / kEventBytes / 1000.0;  // per ms
    double carry = 0;
    size_t rr = 0;
    while (world.exec().now() < until) {
        carry += perTick;
        while (carry >= 1.0) {
            carry -= 1.0;
            world.producers[rr].send(rng.nextKey(50000), kEventBytes, {});
            rr = (rr + 1) % world.producers.size();
        }
        world.exec().runFor(sim::msec(1));
    }
}
/// Full Pravega catch-up run (16 readers against a live write load), with
/// the storage read pipeline's readahead switched on or off — the Fig 12
/// ablation: one flag, same seed, same offered load.
void runPravega(Report& report, bool readahead) {
    std::string label = std::string("pravega[readahead=") + (readahead ? "on" : "off") + "]";
    PravegaOptions opt;
    opt.segments = kSegments;
    opt.numWriters = 4;
    opt.tweak = [readahead](cluster::ClusterConfig& cfg) {
        cfg.store.container.storage.flushSizeBytes = 4 * 1024 * 1024;
        cfg.store.container.storage.flushTimeout = sim::msec(500);
        // Paper: the 100 GB backlog dwarfs the cache, so catch-up reads
        // come from LTS. Scale the cache below our 3 GB backlog too.
        cfg.store.cache.maxBuffers = 96;  // 192 MB per store
        cfg.store.container.readPipeline.readahead = readahead;
    };
    auto world = makePravega(opt);
    sim::Rng rng(7);

    // Build the backlog (no readers yet).
    sim::Duration buildTime =
        sim::sec(static_cast<double>(backlogBytes()) / (kWriteMBps * 1024 * 1024));
    driveWriters(*world, rng, world->exec().now() + buildTime);
    world->exec().runFor(sim::sec(2));  // let tiering drain

    // Release readers at the head; writers continue.
    client::ReaderConfig rcfg;
    rcfg.fetchBytes = 4 * 1024 * 1024;  // catch-up readers fetch big
    auto group = world->cluster->makeReaderGroup("catchup", {"bench/stream"}, rcfg);
    std::vector<std::unique_ptr<client::EventReader>> readers;
    for (int i = 0; i < kSegments; ++i) {
        readers.push_back(group.value()->createReader("r" + std::to_string(i),
                                                      world->cluster->newClientHost()));
    }
    struct Drain {
        uint64_t bytes = 0;
    };
    auto drain = std::make_shared<Drain>();
    std::function<void(client::EventReader*)> pump = [&, drain](client::EventReader* r) {
        r->readNextEvent().onComplete(
            world->life.guard([&, drain, r](const Result<client::EventRead>& res) {
                if (!res.isOk()) return;
                drain->bytes += res.value().payload.size();
                pump(r);
            }));
    };
    world->exec().runFor(sim::sec(1));
    for (auto& r : readers) pump(r.get());

    report.section(label + ": time series (1s buckets)");
    uint64_t lastDrain = 0;
    uint64_t written = backlogBytes();
    double peakRead = 0;
    for (int t = 0; t < maxSeconds(); ++t) {
        driveWriters(*world, rng, world->exec().now() + sim::sec(1));
        written += static_cast<uint64_t>(kWriteMBps * 1024 * 1024);
        double readMBps = static_cast<double>(drain->bytes - lastDrain) / (1024 * 1024);
        peakRead = std::max(peakRead, readMBps);
        lastDrain = drain->bytes;
        double backlogMB = (static_cast<double>(written) - static_cast<double>(drain->bytes)) /
                           (1024 * 1024);
        report.addCustom(label, {{"t_sec", static_cast<double>(t)},
                                 {"readahead", readahead ? 1.0 : 0.0},
                                 {"write_mbps", kWriteMBps},
                                 {"read_mbps", readMBps},
                                 {"backlog_mb", backlogMB}});
        if (backlogMB < 50) {
            report.note(label + ": CAUGHT UP at t=" + std::to_string(t) + " s");
            break;
        }
    }
    // The summary row captures the whole metrics registry, including
    // store.read.coalesced and store.prefetch.* from the read pipeline.
    report.addCustom(label + "-summary",
                     {{"peak_read_mbps", peakRead}, {"readahead", readahead ? 1.0 : 0.0}},
                     &world->exec().mergedMetrics());
}

/// A single reader draining a cold backlog with no concurrent writers: the
/// cleanest view of what readahead buys one catch-up reader (the §5.7
/// pipelining claim, isolated from reader-group parallelism).
void runSingleReaderCatchup(Report& report, bool readahead) {
    std::string label =
        std::string("pravega-single[readahead=") + (readahead ? "on" : "off") + "]";
    PravegaOptions opt;
    opt.segments = 1;
    opt.numWriters = 1;
    opt.tweak = [readahead](cluster::ClusterConfig& cfg) {
        cfg.store.container.storage.flushSizeBytes = 4 * 1024 * 1024;
        cfg.store.container.storage.flushTimeout = sim::msec(500);
        cfg.store.cache.maxBuffers = 8;  // 16 MB: backlog reads must hit LTS
        cfg.store.container.readPipeline.readahead = readahead;
    };
    auto world = makePravega(opt);
    sim::Rng rng(11);

    sim::Duration buildTime =
        sim::sec(static_cast<double>(singleBacklogBytes()) / (kWriteMBps * 1024 * 1024));
    driveWriters(*world, rng, world->exec().now() + buildTime);
    world->exec().runFor(sim::sec(5));  // tiering fully drains, cache cools

    client::ReaderConfig rcfg;
    rcfg.fetchBytes = 4 * 1024 * 1024;
    auto group = world->cluster->makeReaderGroup("single", {"bench/stream"}, rcfg);
    auto reader = group.value()->createReader("r0", world->cluster->newClientHost());

    auto drained = std::make_shared<uint64_t>(0);
    std::function<void()> pump = [&, drained]() {
        reader->readNextEvent().onComplete(
            world->life.guard([&, drained](const Result<client::EventRead>& res) {
                if (!res.isOk()) return;
                *drained += res.value().payload.size();
                pump();
            }));
    };
    sim::TimePoint start = world->exec().now();
    pump();
    // Fine-grained ticks so elapsed time resolves the ablation difference.
    uint64_t target = singleBacklogBytes() * 95 / 100;
    int guard = maxSeconds() * 4 * 100;
    while (*drained < target && guard-- > 0) world->exec().runFor(sim::msec(10));
    double elapsed = static_cast<double>(world->exec().now() - start) / 1e9;
    double mbps = elapsed > 0 ? static_cast<double>(*drained) / (1024 * 1024) / elapsed : 0;
    report.addCustom(label,
                     {{"readahead", readahead ? 1.0 : 0.0},
                      {"drained_mb", static_cast<double>(*drained) / (1024 * 1024)},
                      {"elapsed_sec", elapsed},
                      {"catchup_mbps", mbps}},
                     &world->exec().mergedMetrics());
}
/// Archive-tier ablation: the same single-reader catch-up, with the LTS
/// codec on in both rows and the cold archive tier toggled. Same seed, same
/// write schedule — payloads must be byte-identical either way (checked via
/// a CRC over a fixed event prefix); only the latency profile may differ
/// (tape mount + seek deep-read first byte vs object-store op latency).
/// This is the hot-cache → S3 → archive read sweep: the cache holds the
/// tail, the object store the recent chunks, and (in the "on" row) the
/// archive everything that went idle.
void runArchiveSweep(Report& report, bool archive) {
    std::string label =
        std::string("pravega-archive[archive=") + (archive ? "on" : "off") + "]";
    PravegaOptions opt;
    opt.segments = 1;
    opt.numWriters = 1;
    opt.tweak = [archive](cluster::ClusterConfig& cfg) {
        cfg.store.container.storage.flushSizeBytes = 4 * 1024 * 1024;
        cfg.store.container.storage.flushTimeout = sim::msec(500);
        cfg.store.cache.maxBuffers = 8;  // 16 MB: backlog reads must hit LTS
        cfg.compressLts = true;          // both rows: ratio must not change data
        if (archive) {
            cfg.archiveLts = true;
            // Short idle threshold so the whole backlog migrates during the
            // cool-down below; the catch-up then reads from tape.
            cfg.ltsArchive.minIdle = sim::sec(2);
        }
    };
    auto world = makePravega(opt);
    sim::Rng rng(11);

    sim::Duration buildTime =
        sim::sec(static_cast<double>(singleBacklogBytes()) / (kWriteMBps * 1024 * 1024));
    driveWriters(*world, rng, world->exec().now() + buildTime);
    world->exec().runFor(sim::sec(8));  // tiering drains; idle chunks migrate

    client::ReaderConfig rcfg;
    rcfg.fetchBytes = 4 * 1024 * 1024;
    auto group = world->cluster->makeReaderGroup("archive", {"bench/stream"}, rcfg);
    auto reader = group.value()->createReader("r0", world->cluster->newClientHost());

    // CRC the first `crcEvents` events only: both rows certainly drain that
    // prefix, so the checksum compares identical event sets even if the two
    // runs overshoot the drain target by different amounts.
    const uint64_t crcEvents = singleBacklogBytes() * 90 / 100 / kEventBytes;
    struct DrainState {
        uint64_t bytes = 0;
        uint64_t events = 0;
        uint32_t crc = 0;
    };
    auto st = std::make_shared<DrainState>();
    std::function<void()> pump = [&, st, crcEvents]() {
        reader->readNextEvent().onComplete(
            world->life.guard([&, st, crcEvents](const Result<client::EventRead>& res) {
                if (!res.isOk()) return;
                const Bytes& payload = res.value().payload;
                st->bytes += payload.size();
                if (st->events < crcEvents) {
                    st->crc = crc32(payload.data(), payload.size(), st->crc);
                }
                ++st->events;
                pump();
            }));
    };
    sim::TimePoint start = world->exec().now();
    pump();
    uint64_t target = singleBacklogBytes() * 95 / 100;
    int guard = maxSeconds() * 4 * 100;
    while (st->bytes < target && guard-- > 0) world->exec().runFor(sim::msec(10));
    double elapsed = static_cast<double>(world->exec().now() - start) / 1e9;
    double mbps = elapsed > 0 ? static_cast<double>(st->bytes) / (1024 * 1024) / elapsed : 0;
    double ratio = 0;
    if (const auto* codec = world->cluster->codecLts(); codec != nullptr &&
                                                        codec->storedBytes() > 0) {
        ratio = static_cast<double>(codec->rawBytes()) /
                static_cast<double>(codec->storedBytes());
    }
    report.addCustom(label,
                     {{"archive", archive ? 1.0 : 0.0},
                      {"compression_ratio", ratio},
                      {"drained_mb", static_cast<double>(st->bytes) / (1024 * 1024)},
                      {"elapsed_sec", elapsed},
                      {"catchup_mbps", mbps},
                      {"crc_events", static_cast<double>(crcEvents)},
                      {"payload_crc32", static_cast<double>(st->crc)}},
                     &world->exec().mergedMetrics());
}
}  // namespace

int main() {
    Report report("fig12_historical_reads", "Figure 12: historical (catch-up) reads");
    report.note("backlog " + std::to_string(backlogBytes() / (1024 * 1024)) +
                " MB, write rate 100 MB/s, time series in 1s buckets");
    report.note("readahead on/off rows are the storage-read-pipeline ablation (one flag)");

    runPravega(report, /*readahead=*/true);
    runPravega(report, /*readahead=*/false);

    report.section("single reader catch-up (no concurrent writers)");
    runSingleReaderCatchup(report, /*readahead=*/true);
    runSingleReaderCatchup(report, /*readahead=*/false);

    // ---------------- Pulsar ----------------
    {
        PulsarOptions opt;
        opt.partitions = kSegments;
        opt.numProducers = 4;
        opt.offloadEnabled = true;
        auto world = makePulsar(opt);
        sim::Rng rng(7);

        sim::Duration buildTime =
            sim::sec(static_cast<double>(backlogBytes()) / (kWriteMBps * 1024 * 1024));
        driveWriters(*world, rng, world->exec().now() + buildTime);
        world->exec().runFor(sim::sec(2));

        auto drained = std::make_shared<uint64_t>(0);
        std::vector<std::unique_ptr<baselines::PulsarConsumer>> consumers;
        for (int p = 0; p < kSegments; ++p) {
            consumers.push_back(world->cluster->makeConsumer(
                900 + p, "bench", p, /*fromEarliest=*/true,
                [drained](uint32_t, uint64_t bytes, sim::Duration) { *drained += bytes; }));
        }

        report.section("pulsar: time series (1s buckets)");
        uint64_t lastDrain = 0;
        uint64_t written = backlogBytes();
        double peakRead = 0;
        bool caughtUp = false;
        for (int t = 0; t < maxSeconds(); ++t) {
            driveWriters(*world, rng, world->exec().now() + sim::sec(1));
            written += static_cast<uint64_t>(kWriteMBps * 1024 * 1024);
            double readMBps = static_cast<double>(*drained - lastDrain) / (1024 * 1024);
            peakRead = std::max(peakRead, readMBps);
            lastDrain = *drained;
            double backlogMB = (static_cast<double>(written) - static_cast<double>(*drained)) /
                               (1024 * 1024);
            report.addCustom("pulsar", {{"t_sec", static_cast<double>(t)},
                                        {"write_mbps", kWriteMBps},
                                        {"read_mbps", readMBps},
                                        {"backlog_mb", backlogMB}});
            if (backlogMB < 50) {
                report.note("pulsar: caught up at t=" + std::to_string(t) + " s");
                caughtUp = true;
                break;
            }
        }
        report.addCustom("pulsar-summary", {{"peak_read_mbps", peakRead}},
                         &world->exec().mergedMetrics(),
                         caughtUp ? "" : "NEVER caught up (read <= write rate)");
    }

    // New tiers appended last so the pre-existing rows keep their positions.
    report.section("archive tier sweep (hot cache -> object store -> archive)");
    report.note("archive rows: LTS codec on in both; archive=on migrates idle chunks "
                "to the tape model — payload CRCs must match, only latency differs");
    runArchiveSweep(report, /*archive=*/false);
    runArchiveSweep(report, /*archive=*/true);
    return 0;
}
