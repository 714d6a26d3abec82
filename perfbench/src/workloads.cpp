#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "checker.h"
#include "common/hash.h"
#include "client/event_reader.h"
#include "cluster/pravega_cluster.h"
#include "obs/metrics.h"
#include "payload.h"
#include "reference.h"
#include "tracer.h"
#include "workload/fleet.h"

namespace perfbench {
namespace {

using pravega::Result;
using pravega::Status;
namespace client = pravega::client;
namespace cluster = pravega::cluster;
namespace controller = pravega::controller;
namespace obs = pravega::obs;
namespace sim = pravega::sim;
namespace workload = pravega::workload;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr sim::Duration kTick = sim::msec(1);
/// 1 in this many events keeps its individual spans in the Chrome trace.
constexpr uint32_t kTraceEvery = 1024;
/// p99.9 is reported only with at least 10 samples beyond it.
constexpr size_t kMinP999Samples = 10000;

double wallNow() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpuNow() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- registry deltas over the measured phase ------------------------------

struct RegSnap {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, obs::LatencyHistogram> hists;
};

RegSnap snapshot(sim::Machine& m) {
    RegSnap s;
    const obs::MetricsRegistry& reg = m.mergedMetrics();
    reg.visitCounters([&](const std::string& n, const obs::Counter& c) { s.counters[n] = c.value(); });
    reg.visitHistograms(
        [&](const std::string& n, const obs::LatencyHistogram& h) { s.hists[n] = h; });
    return s;
}

/// Counter and histogram deltas summed over every round's measured phase.
struct LayerAcc {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, obs::LatencyHistogram> hists;

    void add(const RegSnap& before, const RegSnap& after) {
        for (const auto& [name, v] : after.counters) {
            auto it = before.counters.find(name);
            counters[name] += v - (it == before.counters.end() ? 0 : it->second);
        }
        for (const auto& [name, h] : after.hists) {
            auto it = before.hists.find(name);
            hists[name].mergeFrom(it == before.hists.end() ? h : h.deltaSince(it->second));
        }
    }
    double c(const std::string& name) const {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : static_cast<double>(it->second);
    }
    double pMs(const std::string& name, double p) const {
        auto it = hists.find(name);
        return it == hists.end() ? 0 : it->second.percentileMs(p);
    }
};

// ---- per-round record and run aggregate ------------------------------------

struct Round {
    double setupS = 0, clusterS = 0, streamsS = 0, readersS = 0, backlogS = 0;
    double runS = 0, cpuS = 0;
    double refS = 0;  // mean ReferenceJob::run() just before and just after
    uint64_t desEvents = 0, xcore = 0, clientEvents = 0;
    double phaseVirtualS = 0;
    int drives = 0;
    double ackedMB = 0, windowS = 0;       // ingest_mbps
    double deliveredMB = 0, deliverS = 0;  // deliver_mbps
    double ltsBytes = 0, userBytes = 0;    // lts_bytes_per_user_byte (whole round)
    double phaseUserBytes = 0;             // user bytes acked in the measured phase
    double ltsWrittenPhase = 0;            // LTS stored-byte growth in the phase
    double storeLoad = 0;
    std::vector<int64_t> ack, deliver;  // latency samples, virtual ns
};

struct Agg {
    explicit Agg(bool trace) : tracer(trace) {}
    Tracer tracer;
    std::vector<Round> rounds;
    LayerAcc layers;
    std::array<Tracer::Totals, static_cast<size_t>(Layer::kCount)> wall{};
    CheckCounts counts;
    uint64_t readerErrors = 0;
    uint64_t fleetUnacked = 0;
    uint64_t fleetOffered = 0;
    uint64_t probeRetries = 0;
    uint64_t probeTimeouts = 0;
    std::vector<std::string> notes;
    bool ok = true;

    void fail(const std::string& why) {
        ok = false;
        notes.push_back(why);
    }
    void addCounts(const CheckCounts& c) {
        counts.attempted += c.attempted;
        counts.writeErrors += c.writeErrors;
        counts.unacked += c.unacked;
        counts.undelivered += c.undelivered;
        counts.duplicates += c.duplicates;
        counts.outOfOrder += c.outOfOrder;
        counts.corrupt += c.corrupt;
    }
};

/// Brackets one round's measured phase: wall and CPU time, DES and
/// cross-core counts, registry and span deltas.
class Phase {
public:
    Phase(cluster::PravegaCluster& c, Agg& agg)
        : c_(c),
          agg_(agg),
          before_(snapshot(c.machine())),
          des0_(c.machine().executedEvents()),
          xcore0_(c.machine().crossCoreMessages()),
          lts0_(c.lts().totalBytes()),
          v0_(c.machine().now()) {
        for (size_t l = 0; l < wall0_.size(); ++l) wall0_[l] = agg.tracer.totals(Layer(l));
        cpu0_ = cpuNow();
        w0_ = wallNow();
    }

    sim::TimePoint start() const { return v0_; }

    void end(Round& r) {
        r.runS = wallNow() - w0_;
        r.cpuS = cpuNow() - cpu0_;
        sim::Machine& m = c_.machine();
        r.desEvents = m.executedEvents() - des0_;
        r.xcore = m.crossCoreMessages() - xcore0_;
        r.phaseVirtualS = sim::toSeconds(m.now() - v0_);
        r.ltsWrittenPhase = static_cast<double>(c_.lts().totalBytes() - lts0_);
        r.drives = c_.config().bookies;
        agg_.layers.add(before_, snapshot(m));
        for (size_t l = 0; l < wall0_.size(); ++l) {
            const Tracer::Totals& now = agg_.tracer.totals(Layer(l));
            agg_.wall[l].ns += now.ns - wall0_[l].ns;
            agg_.wall[l].selfNs += now.selfNs - wall0_[l].selfNs;
            agg_.wall[l].calls += now.calls - wall0_[l].calls;
        }
    }

private:
    cluster::PravegaCluster& c_;
    Agg& agg_;
    RegSnap before_;
    uint64_t des0_, xcore0_, lts0_;
    sim::TimePoint v0_;
    std::array<Tracer::Totals, static_cast<size_t>(Layer::kCount)> wall0_{};
    double cpu0_ = 0, w0_ = 0;
};

// ---- sampled event traces ----------------------------------------------------

/// Span id of event (w, seq) when it is in the traced sample, else 0.
uint64_t traceId(const Tracer& tracer, const PayloadGen& gen, uint32_t w, uint32_t seq) {
    if (!tracer.enabled() || !gen.sampled(w, seq, kTraceEvery)) return 0;
    return (static_cast<uint64_t>(w) + 1) << 32 | seq;
}

void traceAck(Tracer& tracer, const PayloadGen& gen, const DeliveryChecker& chk, uint32_t w,
              uint32_t seq, int64_t now) {
    if (uint64_t id = traceId(tracer, gen, w, seq)) {
        tracer.virtualStage("write->ack", id, chk.sentAt(w, seq), now);
    }
}

void traceDelivery(Tracer& tracer, const PayloadGen& gen, const DeliveryChecker& chk,
                   const uint8_t* data, size_t size, int64_t now) {
    if (!tracer.enabled() || size < sizeof(EventHeader)) return;
    EventHeader h;
    std::memcpy(&h, data, sizeof(h));
    if (!chk.known(h.writer, h.seq)) return;
    if (uint64_t id = traceId(tracer, gen, h.writer, h.seq)) {
        tracer.virtualStage("write->deliver", id, chk.sentAt(h.writer, h.seq), now);
    }
}

// ---- client-path load: open-loop writers and pumping readers ---------------

class ClientLoad {
public:
    ClientLoad(cluster::PravegaCluster& c, Tracer& tracer, const PayloadGen& gen,
               DeliveryChecker& checker, std::string stream, int writers)
        : c_(c),
          tracer_(tracer),
          gen_(gen),
          checker_(checker),
          stream_(std::move(stream)),
          buf_(gen.eventBytes()) {
        for (int i = 0; i < writers; ++i) writers_.push_back(c.makeWriter(stream_));
        keys_.reserve(gen.keySpace());
        for (uint32_t k = 0; k < gen.keySpace(); ++k) keys_.push_back("k" + std::to_string(k));
    }

    Status createGroup(const std::string& group, client::ReaderConfig cfg) {
        auto g = c_.makeReaderGroup(group, {stream_}, cfg);
        if (!g) return g.status();
        group_ = g.value();
        groupName_ = group;
        return Status::ok();
    }

    client::EventReader& addReader() {
        readers_.push_back(group_->createReader(
            groupName_ + "-" + std::to_string(readers_.size()), c_.newClientHost()));
        return *readers_.back();
    }

    Status addReaders(const std::string& group, int n, client::ReaderConfig cfg) {
        Status st = createGroup(group, cfg);
        for (int i = 0; st && i < n; ++i) addReader();
        return st;
    }

    /// Every reader owns exactly `perReader` segments.
    bool balanced(size_t perReader) const {
        for (const auto& r : readers_) {
            if (r->assignedSegments() != perReader) return false;
        }
        return true;
    }

    size_t assignedSegments() const {
        size_t n = 0;
        for (const auto& r : readers_) n += r->assignedSegments();
        return n;
    }

    void startReading() {
        for (auto& r : readers_) pump(r.get());
    }

    /// Writes `n` events due now, round-robin over the writers.
    void emit(uint64_t n, bool measured) {
        const int64_t now = c_.machine().now();
        for (uint64_t i = 0; i < n; ++i) {
            auto w = static_cast<uint32_t>(rr_);
            rr_ = (rr_ + 1) % writers_.size();
            uint32_t seq = checker_.nextSeq(w);
            gen_.fill(w, seq, buf_.data());
            checker_.onSent(w, now, measured);
            Tracer::Span span(tracer_, Layer::ClientWrite, traceId(tracer_, gen_, w, seq));
            writers_[w]->writeEvent(keys_[gen_.keyOf(w, seq)], pravega::BytesView(buf_),
                                    [this, w, seq](const Status& s) { onAck(w, seq, s.isOk()); });
        }
    }

    void flush() {
        for (auto& w : writers_) w->flush();
    }

    uint64_t readerErrors() const { return readerErrors_; }

private:
    void onAck(uint32_t w, uint32_t seq, bool ok) {
        Tracer::Span span(tracer_, Layer::BenchCheck);
        const int64_t now = c_.machine().now();
        checker_.onAck(w, seq, ok, now);
        traceAck(tracer_, gen_, checker_, w, seq, now);
    }

    /// Keeps one read outstanding per reader. Ready futures are consumed
    /// in a loop so a full fetch buffer does not recurse.
    void pump(client::EventReader* r) {
        for (;;) {
            sim::Future<client::EventRead> fut;
            {
                Tracer::Span span(tracer_, Layer::ClientRead);
                fut = r->readNextEvent();
            }
            if (!fut.isReady()) {
                fut.onComplete([this, r](const Result<client::EventRead>& res) {
                    if (onRead(res)) pump(r);
                });
                return;
            }
            if (!onRead(fut.result())) return;
        }
    }

    bool onRead(const Result<client::EventRead>& res) {
        Tracer::Span span(tracer_, Layer::BenchCheck);
        if (!res.isOk()) {
            // readNextEvent fails only once the reader is closed.
            ++readerErrors_;
            return false;
        }
        const pravega::Bytes& p = res.value().payload;
        const int64_t now = c_.machine().now();
        checker_.onDelivered(p.data(), p.size(), now);
        traceDelivery(tracer_, gen_, checker_, p.data(), p.size(), now);
        return true;
    }

    cluster::PravegaCluster& c_;
    Tracer& tracer_;
    const PayloadGen& gen_;
    DeliveryChecker& checker_;
    std::string stream_;
    std::vector<std::unique_ptr<client::EventWriter>> writers_;
    std::shared_ptr<client::ReaderGroup> group_;
    std::string groupName_;
    std::vector<std::unique_ptr<client::EventReader>> readers_;
    std::vector<std::string> keys_;
    pravega::Bytes buf_;
    size_t rr_ = 0;
    uint64_t readerErrors_ = 0;
};

/// Advances virtual time from harness context, inside sim.run spans.
class Driver {
public:
    Driver(cluster::PravegaCluster& c, Tracer& tracer) : c_(c), tracer_(tracer) {}

    sim::TimePoint now() const { return c_.machine().now(); }

    void runTo(sim::TimePoint t) {
        Tracer::Span span(tracer_, Layer::SimRun);
        c_.machine().runUntil(t);
    }

    /// Open loop: every 1 ms tick, writes the events due in it (no waiting
    /// on acks), until `until` or `stop()`.
    template <typename Load>
    void drive(Load* load, double eventsPerSec, sim::TimePoint until, bool measured,
               const std::function<bool()>& stop = {}) {
        while (now() < until) {
            if (stop && stop()) return;
            if (load != nullptr) {
                carry_ += eventsPerSec * sim::toSeconds(kTick);
                auto n = static_cast<uint64_t>(carry_);
                carry_ -= static_cast<double>(n);
                Tracer::Span span(tracer_, Layer::BenchGen);
                load->emit(n, measured);
            }
            runTo(std::min(until, now() + kTick));
        }
    }

    /// Runs in 10 ms steps until `pred()`; returns the virtual time it first
    /// held, or -1 at the timeout.
    sim::TimePoint settle(const std::function<bool()>& pred, sim::Duration timeout) {
        const sim::TimePoint deadline = now() + timeout;
        while (!pred()) {
            if (now() >= deadline) return -1;
            runTo(now() + sim::msec(10));
        }
        return now();
    }

private:
    cluster::PravegaCluster& c_;
    Tracer& tracer_;
    double carry_ = 0;
};

// ---- per-store load over a trailing window ---------------------------------

std::map<uint32_t, uint64_t> containerBytes(cluster::PravegaCluster& c) {
    std::map<uint32_t, uint64_t> snap;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        if (auto* container = c.registry().containerFor(cid)) snap[cid] = container->totalBytesIn();
    }
    return snap;
}

/// Max/min per-store ingest since `snap`, attributing each container's
/// growth to its current owner (a moved container restarts its counter).
double storeLoadRatio(cluster::PravegaCluster& c, const std::map<uint32_t, uint64_t>& snap) {
    std::map<pravega::segmentstore::SegmentStore*, uint64_t> perStore;
    for (auto* s : c.stores()) perStore[s] = 0;
    for (uint32_t cid = 0; cid < c.registry().containerCount(); ++cid) {
        auto* owner = c.registry().ownerOf(cid);
        auto* container = owner ? owner->container(cid) : nullptr;
        if (container == nullptr) continue;
        uint64_t cum = container->totalBytesIn();
        auto it = snap.find(cid);
        uint64_t prev = it == snap.end() ? 0 : it->second;
        perStore[owner] += cum >= prev ? cum - prev : cum;
    }
    uint64_t maxLoad = 0, minLoad = UINT64_MAX;
    for (const auto& [s, load] : perStore) {
        maxLoad = std::max(maxLoad, load);
        minLoad = std::min(minLoad, load);
    }
    return static_cast<double>(maxLoad) / static_cast<double>(std::max<uint64_t>(minLoad, 1));
}

// ---- workloads --------------------------------------------------------------

struct Sizes {
    int rounds = 5;
    bool tiny = false;
};

/// Round-level bookkeeping shared by the client-path workloads.
void finishCheck(Agg& agg, Round& r, DeliveryChecker& chk) {
    agg.addCounts(chk.finish());
    auto& a = chk.ackSamples();
    auto& d = chk.deliverSamples();
    r.ack.insert(r.ack.end(), a.begin(), a.end());
    r.deliver.insert(r.deliver.end(), d.begin(), d.end());
}

void finishClientRound(Agg& agg, Round& r, DeliveryChecker& chk, ClientLoad& load,
                       double eventBytes) {
    finishCheck(agg, r, chk);
    agg.readerErrors += load.readerErrors();
    r.userBytes += static_cast<double>(chk.acked()) * eventBytes;
}

// ingest: 200 MB/s of 1 KB events, 10 writers, 50 segments, 4 tail readers.
void ingestRound(Agg& agg, uint64_t seed, const Sizes& z) {
    constexpr uint32_t kEventBytes = 1024;
    constexpr int kWriters = 10, kSegments = 50, kReaders = 4;
    const double eventsPerSec = 200.0 * kMiB / kEventBytes;
    const double warmup = z.tiny ? 0.02 : 0.2;
    const double window = z.tiny ? 0.08 : 0.6;
    const double loadWindow = window / 2;

    Round r;
    const double t0 = wallNow();
    auto c = std::make_unique<cluster::PravegaCluster>(cluster::ClusterConfig{});
    r.clusterS = wallNow() - t0;

    double t = wallNow();
    controller::StreamConfig sc;
    sc.initialSegments = kSegments;
    if (Status st = c->createStream("bench", "ingest", sc); !st) {
        return agg.fail("ingest: stream creation failed: " + st.toString());
    }
    r.streamsS = wallNow() - t;

    t = wallNow();
    PayloadGen gen(seed, kEventBytes, 50000);
    DeliveryChecker chk(gen, kWriters);
    ClientLoad load(*c, agg.tracer, gen, chk, "bench/ingest", kWriters);
    Driver drv(*c, agg.tracer);
    if (Status st = load.addReaders("tail", kReaders, {}); !st) {
        return agg.fail("ingest: reader group failed: " + st.toString());
    }
    if (drv.settle([&] { return load.assignedSegments() == kSegments; }, sim::sec(10)) < 0) {
        return agg.fail("ingest: readers did not acquire every segment");
    }
    r.readersS = wallNow() - t;
    r.setupS = wallNow() - t0;

    Phase phase(*c, agg);
    load.startReading();
    drv.drive(&load, eventsPerSec, drv.now() + sim::sec(warmup), false);
    const uint64_t acked0 = chk.acked();
    drv.drive(&load, eventsPerSec, drv.now() + sim::sec(window - loadWindow), true);
    auto snap = containerBytes(*c);
    drv.drive(&load, eventsPerSec, drv.now() + sim::sec(loadWindow), true);
    r.storeLoad = storeLoadRatio(*c, snap);
    r.ackedMB = static_cast<double>(chk.acked() - acked0) * kEventBytes / kMiB;
    r.windowS = window;
    load.flush();
    sim::TimePoint settled = drv.settle([&] { return chk.settled(); }, sim::sec(5));
    if (settled < 0) agg.notes.push_back("ingest: grace period ended before every ack/delivery");
    r.phaseUserBytes = static_cast<double>(chk.acked()) * kEventBytes;
    r.deliveredMB = static_cast<double>(chk.deliveredBytes()) / kMiB;
    r.deliverS = sim::toSeconds((settled < 0 ? drv.now() : settled) - phase.start());
    drv.runTo(drv.now() + sim::sec(1));  // storage writers flush the tail to LTS
    phase.end(r);

    r.clientEvents = chk.sent();
    r.ltsBytes = static_cast<double>(c->lts().totalBytes());
    finishClientRound(agg, r, chk, load, kEventBytes);
    agg.rounds.push_back(std::move(r));
}

// catchup: 16 readers drain a 100 MB, 16-segment backlog (LTS codec on)
// while 4 writers add 100 MB/s of 10 KB events to a second, tail-read
// stream on the same stores. The cache keeps its default size: with a cache
// smaller than the backlog (cfg.store.cache.maxBuffers = 16), catch-up reads
// go to LTS and some fail with "IoError: chunk metadata inconsistent with
// read index".
void catchupRound(Agg& agg, uint64_t seed, const Sizes& z) {
    constexpr uint32_t kEventBytes = 10 * 1024;
    constexpr int kWriters = 4, kSegments = 16, kTailReaders = 4;
    constexpr uint64_t kFetchBytes = 1024 * 1024;
    const double eventsPerSec = 100.0 * kMiB / kEventBytes;
    const double backlogMB = z.tiny ? 16 : 100;
    const double writeS = z.tiny ? 0.1 : 2.0;  // live writes, virtual s

    Round r;
    const double t0 = wallNow();
    cluster::ClusterConfig cfg;
    cfg.compressLts = true;
    cfg.store.container.storage.flushSizeBytes = 4 * 1024 * 1024;
    cfg.store.container.storage.flushTimeout = sim::msec(500);
    auto c = std::make_unique<cluster::PravegaCluster>(cfg);
    r.clusterS = wallNow() - t0;

    double t = wallNow();
    controller::StreamConfig sc;
    sc.initialSegments = kSegments;
    for (const char* name : {"backlog", "live"}) {
        if (Status st = c->createStream("bench", name, sc); !st) {
            return agg.fail("catchup: stream creation failed: " + st.toString());
        }
    }
    r.streamsS = wallNow() - t;

    t = wallNow();
    PayloadGen gen(seed, kEventBytes, 50000);
    DeliveryChecker backlogChk(gen, kWriters);
    ClientLoad backlog(*c, agg.tracer, gen, backlogChk, "bench/backlog", kWriters);
    Driver drv(*c, agg.tracer);
    drv.drive(&backlog, eventsPerSec, drv.now() + sim::sec(backlogMB / 100.0), false);
    if (drv.settle([&] { return backlogChk.allAcked(); }, sim::sec(10)) < 0) {
        return agg.fail("catchup: backlog writes were not acked");
    }
    drv.runTo(drv.now() + sim::sec(2));  // tiering drains the backlog to LTS
    backlogChk.markBacklog();
    r.backlogS = wallNow() - t;

    // The catch-up readers join before the measured phase and settle on one
    // segment each, so the phase starts from a balanced group; meanwhile
    // each buffers at most two fetches of its segment.
    t = wallNow();
    PayloadGen liveGen(splitmix(seed), kEventBytes, 50000);
    DeliveryChecker liveChk(liveGen, kWriters);
    ClientLoad live(*c, agg.tracer, liveGen, liveChk, "bench/live", kWriters);
    client::ReaderConfig rcfg;
    rcfg.fetchBytes = kFetchBytes;
    Status st = backlog.createGroup("catchup", rcfg);
    if (st) st = live.addReaders("tail", kTailReaders, {});
    if (!st) return agg.fail("catchup: reader group failed: " + st.toString());
    // Readers join 20 ms apart: sixteen registrations racing on the group
    // state can leave some readers out of the group.
    for (int i = 0; i < kSegments; ++i) {
        backlog.addReader();
        drv.runTo(drv.now() + sim::msec(20));
    }
    if (drv.settle([&] { return backlog.balanced(1) && live.assignedSegments() == kSegments; },
                   sim::sec(10)) < 0) {
        return agg.fail("catchup: readers did not settle on their segments");
    }
    r.readersS = wallNow() - t;
    r.setupS = wallNow() - t0;

    Phase phase(*c, agg);
    auto snap = containerBytes(*c);
    backlog.startReading();
    live.startReading();
    drv.drive(&live, eventsPerSec, drv.now() + sim::sec(writeS), true);
    r.storeLoad = storeLoadRatio(*c, snap);
    r.windowS = writeS;
    r.ackedMB = static_cast<double>(liveChk.acked()) * kEventBytes / kMiB;
    live.flush();
    sim::TimePoint settled = drv.settle(
        [&] { return liveChk.settled() && backlogChk.settled(); }, sim::sec(10));
    if (settled < 0) agg.notes.push_back("catchup: grace period ended before every delivery");
    // The catch-up read rate: backlog bytes over the time until its last
    // event was delivered.
    if (backlogChk.backlogDoneAt() < 0) {
        agg.notes.push_back("catchup: backlog never fully delivered");
    } else {
        r.deliveredMB = static_cast<double>(backlogChk.backlogDoneBytes()) / kMiB;
        r.deliverS = sim::toSeconds(backlogChk.backlogDoneAt() - phase.start());
    }
    r.phaseUserBytes = static_cast<double>(liveChk.acked()) * kEventBytes;
    drv.runTo(drv.now() + sim::sec(1));
    phase.end(r);

    r.clientEvents = liveChk.sent() + backlogChk.sent();
    r.ltsBytes = static_cast<double>(c->lts().totalBytes());
    finishClientRound(agg, r, backlogChk, backlog, kEventBytes);
    finishClientRound(agg, r, liveChk, live, kEventBytes);
    agg.rounds.push_back(std::move(r));
}

// ---- fleet probe --------------------------------------------------------------

/// Per-event appends and tail reads on the fleet's own request path: store
/// CPU charge, then container append, re-resolving the owning store on every
/// request, as workload::FleetWorkload does. (client::EventWriter and
/// EventReader keep the store they first resolved, so their requests fail
/// with ContainerOffline once the rebalancer moves the container.)
///
/// Each probe segment is one writer with one append outstanding, so its
/// events stay in order across retries; a retrying head delays the events
/// behind it. Appends carry (writer id, event number), so a resend after a
/// timeout is deduplicated by the container's exactly-once check. A request
/// is resent when a container move fails it (a retry) or when it has not
/// completed after kRequestTimeout (a timeout: a move can drop it).
class FleetProbe {
public:
    FleetProbe(cluster::PravegaCluster& c, Tracer& tracer, const PayloadGen& gen,
               DeliveryChecker& checker, const std::vector<pravega::segmentstore::SegmentId>& ids)
        : c_(c), tracer_(tracer), gen_(gen), checker_(checker) {
        for (auto id : ids) {
            segs_.push_back(std::make_unique<Seg>());
            segs_.back()->id = id;
            segs_.back()->cid = pravega::containerFor(id, c.registry().containerCount());
        }
        watchdog();
    }
    ~FleetProbe() { *alive_ = false; }
    FleetProbe(const FleetProbe&) = delete;
    FleetProbe& operator=(const FleetProbe&) = delete;

    /// Queues `n` events due now, round-robin over the probe segments.
    void emit(uint64_t n, bool measured) {
        const int64_t now = c_.machine().now();
        for (uint64_t i = 0; i < n; ++i) {
            auto w = static_cast<uint32_t>(rr_);
            rr_ = (rr_ + 1) % segs_.size();
            segs_[w]->queue.push_back(checker_.nextSeq(w));
            checker_.onSent(w, now, measured);
            Tracer::Span span(tracer_, Layer::ClientWrite,
                              traceId(tracer_, gen_, w, segs_[w]->queue.back()));
            sendHead(w);
        }
    }

    void startReading() {
        for (uint32_t w = 0; w < segs_.size(); ++w) read(w);
    }

    uint64_t retries() const { return retries_; }
    uint64_t timeouts() const { return timeouts_; }
    uint64_t readErrors() const { return readErrors_; }

private:
    /// Appends take about 1-3 ms; a resend is deduplicated, so a short
    /// timeout costs little and keeps a dropped completion from stalling
    /// the segment's queue.
    static constexpr sim::Duration kRequestTimeout = sim::msec(20);
    static constexpr pravega::segmentstore::WriterId kWriterBase = 0xF1EE700000000000ULL;

    struct Seg {
        pravega::segmentstore::SegmentId id = 0;
        uint32_t cid = 0;
        std::deque<uint32_t> queue;  // seqs waiting for their append
        bool appending = false;
        uint64_t appendAttempt = 0;  // a completion of an older attempt is ignored
        sim::TimePoint appendAt = 0;
        uint64_t acked = 0;  // events acked, in order
        bool reading = false;
        uint64_t readAttempt = 0;
        sim::TimePoint readAt = 0;
        int64_t readOffset = 0;
        pravega::Bytes partial;  // bytes of an event split across reads
    };

    pravega::segmentstore::SegmentContainer* container(uint32_t cid) {
        auto* owner = c_.registry().ownerOf(cid);
        return owner ? owner->container(cid) : nullptr;
    }

    /// Runs `fn` after `delay` unless the probe is gone.
    void after(sim::Duration delay, std::function<void()> fn) {
        c_.machine().schedule(delay, [alive = alive_, fn = std::move(fn)] {
            if (*alive) fn();
        });
    }

    void watchdog() {
        c_.machine().scheduleWeak(sim::msec(10), [this, alive = alive_] {
            if (!*alive) return;
            const sim::TimePoint now = c_.machine().now();
            for (uint32_t w = 0; w < segs_.size(); ++w) {
                Seg& s = *segs_[w];
                if (s.appending && now - s.appendAt > kRequestTimeout) {
                    ++timeouts_;
                    s.appending = false;
                    sendHead(w);
                }
                // A tail read may wait for data; one that waits while acked
                // data lies beyond it was dropped.
                const auto ackedEnd = static_cast<int64_t>(s.acked * gen_.eventBytes());
                if (s.reading && now - s.readAt > kRequestTimeout && s.readOffset < ackedEnd) {
                    ++timeouts_;
                    read(w);
                }
            }
            watchdog();
        });
    }

    void sendHead(uint32_t w) {
        Seg& s = *segs_[w];
        if (s.appending || s.queue.empty()) return;
        s.appending = true;
        const uint64_t attempt = ++s.appendAttempt;
        s.appendAt = c_.machine().now();
        auto retry = [this, w, attempt] {
            ++retries_;
            after(sim::msec(1), [this, w, attempt] {
                if (segs_[w]->appendAttempt != attempt) return;
                segs_[w]->appending = false;
                sendHead(w);
            });
        };
        auto* store = c_.registry().ownerOf(s.cid);
        if (store == nullptr) return retry();
        const uint32_t seq = s.queue.front();
        pravega::Bytes bytes(gen_.eventBytes());
        gen_.fill(w, seq, bytes.data());
        pravega::SharedBuf payload(std::move(bytes));
        store->chargeRequest(s.cid, payload.size())
            .thenAsync([this, alive = alive_, w, seq, payload](const sim::Unit&) {
                auto* ct = *alive ? container(segs_[w]->cid) : nullptr;
                if (ct == nullptr) {
                    return sim::Future<int64_t>::failed(
                        Status(pravega::Err::ContainerOffline, "container moving"));
                }
                return ct->append(segs_[w]->id, payload, kWriterBase + w, seq);
            })
            .onComplete([this, alive = alive_, w, seq, attempt,
                         retry](const Result<int64_t>& r) {
                if (!*alive || segs_[w]->appendAttempt != attempt) return;
                Tracer::Span span(tracer_, Layer::BenchCheck);
                if (!r.isOk() && r.code() == pravega::Err::ContainerOffline) return retry();
                Seg& seg = *segs_[w];
                seg.queue.pop_front();
                seg.appending = false;
                seg.acked += r.isOk() ? 1 : 0;
                checker_.onAck(w, seq, r.isOk(), c_.machine().now());
                traceAck(tracer_, gen_, checker_, w, seq, c_.machine().now());
                sendHead(w);
            });
    }

    void read(uint32_t w) {
        Seg& s = *segs_[w];
        s.reading = true;
        const uint64_t attempt = ++s.readAttempt;
        s.readAt = c_.machine().now();
        auto* ct = container(s.cid);
        if (ct == nullptr) {
            return after(sim::msec(10), [this, w, attempt] {
                if (segs_[w]->readAttempt == attempt) read(w);
            });
        }
        ct->read(s.id, s.readOffset, 64 * 1024)
            .onComplete([this, alive = alive_, w,
                         attempt](const Result<pravega::segmentstore::ReadResult>& r) {
                if (!*alive || segs_[w]->readAttempt != attempt) return;
                if (!r.isOk()) {
                    if (r.code() != pravega::Err::ContainerOffline) ++readErrors_;
                    return after(sim::msec(10), [this, w, attempt] {
                        if (segs_[w]->readAttempt == attempt) read(w);
                    });
                }
                onData(w, r.value().data);
                // Continue on a fresh DES event: a read that completes
                // synchronously must not recurse.
                after(0, [this, w, attempt] {
                    if (segs_[w]->readAttempt == attempt) read(w);
                });
            });
    }

    void onData(uint32_t w, const pravega::Bytes& data) {
        Tracer::Span span(tracer_, Layer::BenchCheck);
        Seg& s = *segs_[w];
        s.readOffset += static_cast<int64_t>(data.size());
        s.partial.insert(s.partial.end(), data.begin(), data.end());
        const size_t n = gen_.eventBytes();
        size_t off = 0;
        for (; off + n <= s.partial.size(); off += n) {
            checker_.onDelivered(s.partial.data() + off, n, c_.machine().now());
            traceDelivery(tracer_, gen_, checker_, s.partial.data() + off, n, c_.machine().now());
        }
        s.partial.erase(s.partial.begin(), s.partial.begin() + static_cast<ptrdiff_t>(off));
    }

    cluster::PravegaCluster& c_;
    Tracer& tracer_;
    const PayloadGen& gen_;
    DeliveryChecker& checker_;
    std::vector<std::unique_ptr<Seg>> segs_;
    size_t rr_ = 0;
    uint64_t retries_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t readErrors_ = 0;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// fleet: 10k Zipf-skewed streams from 100k modeled producers on 6 stores /
// 12 containers / 4 cores with the rebalancer on, plus a light probe stream
// on the fleet's request path for user-visible latency.
void fleetRound(Agg& agg, uint64_t seed, const Sizes& z) {
    constexpr uint32_t kProbeBytes = 256;
    constexpr int kProbeSegments = 12;
    const double probeEventsPerSec = 1000;
    const double runS = z.tiny ? 3 : 20;
    const double loadWindow = runS / 3;

    Round r;
    const double t0 = wallNow();
    cluster::ClusterConfig cfg;
    cfg.ltsKind = cluster::LtsKind::InMemory;
    cfg.segmentStores = 6;
    cfg.containerCount = 12;
    cfg.rebalanceContainers = true;
    cfg.rebalancer.pollInterval = sim::msec(500);
    cfg.rebalancer.moveBudgetPerPoll = 3;
    cfg.rebalancer.minStoreBytesPerSec = 16.0 * 1024;
    cfg.machine.cores = 4;
    auto c = std::make_unique<cluster::PravegaCluster>(cfg);
    r.clusterS = wallNow() - t0;

    double t = wallNow();
    workload::FleetConfig fc;
    fc.seed = seed;
    fc.tick = sim::msec(250);
    workload::TenantSpec spec;
    spec.scope = "fleet";
    spec.streams = z.tiny ? 500 : 10000;
    spec.producersPerStream = 10;
    spec.producerEventsPerSec = 0.2;
    spec.eventBytes = 256;
    spec.streamSkewTheta = 1.4;
    spec.keySkewTheta = 1.0;
    spec.keysPerStream = 100;
    fc.tenants.push_back(spec);
    workload::FleetWorkload fleet(*c, fc);
    if (Status st = fleet.setup(); !st) return agg.fail("fleet: setup failed: " + st.toString());
    controller::StreamConfig sc;
    sc.initialSegments = kProbeSegments;
    if (Status st = c->createStream("probe", "stream", sc); !st) {
        return agg.fail("fleet: probe stream creation failed: " + st.toString());
    }
    auto uris = c->ctrl().getCurrentSegments("probe/stream");
    if (!uris) return agg.fail("fleet: probe segments unknown: " + uris.status().toString());
    std::vector<pravega::segmentstore::SegmentId> ids;
    for (const auto& u : uris.value()) ids.push_back(u.record.id);
    r.streamsS = wallNow() - t;
    r.setupS = wallNow() - t0;

    PayloadGen gen(seed, kProbeBytes, 1000);
    DeliveryChecker chk(gen, static_cast<uint32_t>(ids.size()));
    FleetProbe probe(*c, agg.tracer, gen, chk, ids);
    Driver drv(*c, agg.tracer);

    Phase phase(*c, agg);
    probe.startReading();
    fleet.start();
    drv.drive(&probe, probeEventsPerSec, drv.now() + sim::sec(runS - loadWindow), true);
    auto snap = containerBytes(*c);
    drv.drive(&probe, probeEventsPerSec, drv.now() + sim::sec(loadWindow), true);
    r.storeLoad = storeLoadRatio(*c, snap);
    fleet.stop();
    r.windowS = runS;
    r.ackedMB = (static_cast<double>(fleet.ackedEvents()) * spec.eventBytes +
                 static_cast<double>(chk.acked()) * kProbeBytes) /
                kMiB;
    sim::TimePoint settled = drv.settle(
        [&] { return chk.settled() && fleet.inflightAppends() == 0; }, sim::sec(10));
    if (settled < 0) agg.notes.push_back("fleet: appends still in flight after the grace period");
    r.deliveredMB = static_cast<double>(chk.deliveredBytes()) / kMiB;
    r.deliverS = sim::toSeconds((settled < 0 ? drv.now() : settled) - phase.start());
    r.phaseUserBytes = static_cast<double>(fleet.ackedEvents()) * spec.eventBytes +
                       static_cast<double>(chk.acked()) * kProbeBytes;
    drv.runTo(drv.now() + sim::sec(1));
    phase.end(r);

    r.clientEvents = chk.sent() + fleet.offeredEvents();
    r.ltsBytes = static_cast<double>(c->lts().totalBytes());
    r.userBytes = r.phaseUserBytes;
    agg.fleetOffered += fleet.offeredEvents();
    agg.fleetUnacked += fleet.offeredEvents() - std::min(fleet.offeredEvents(), fleet.ackedEvents());
    agg.readerErrors += probe.readErrors();
    agg.probeRetries += probe.retries();
    agg.probeTimeouts += probe.timeouts();
    finishCheck(agg, r, chk);
    agg.rounds.push_back(std::move(r));
}

// ---- metrics ----------------------------------------------------------------

std::vector<double> column(const std::vector<Round>& rounds, double Round::*field,
                           size_t first = 0) {
    std::vector<double> v;
    for (size_t i = first; i < rounds.size(); ++i) v.push_back(rounds[i].*field);
    return v;
}

double sum(const std::vector<Round>& rounds, double Round::*field) {
    double s = 0;
    for (const Round& r : rounds) s += r.*field;
    return s;
}

/// Exact p50 and p99.9 over the samples of every round.
void addPercentiles(RunResult& out, Agg& agg, const std::string& prefix,
                    std::vector<int64_t> Round::*samples) {
    std::vector<int64_t> all;
    for (const Round& r : agg.rounds) all.insert(all.end(), (r.*samples).begin(), (r.*samples).end());
    out.notes.push_back(prefix + " samples: " + std::to_string(all.size()));
    out.endToEnd.push_back({prefix + "_p50_ms", percentileMs(all, 50), "ms"});
    if (all.size() >= kMinP999Samples) {
        out.endToEnd.push_back({prefix + "_p999_ms", percentileMs(all, 99.9), "ms"});
    } else {
        agg.notes.push_back(prefix + "_p999_ms omitted: " + std::to_string(all.size()) +
                            " samples leave fewer than 10 beyond p99.9");
    }
}

double sampleCount(const std::vector<Round>& rounds, std::vector<int64_t> Round::*samples) {
    double n = 0;
    for (const Round& r : rounds) n += static_cast<double>((r.*samples).size());
    return n;
}

void buildMetrics(Agg& agg, RunResult& out) {
    const auto& R = agg.rounds;
    const double n = static_cast<double>(R.size());
    const LayerAcc& L = agg.layers;

    std::string perRound = "per round: run_s";
    char num[32];
    for (const Round& r : R) {
        std::snprintf(num, sizeof(num), " %.3f", r.runS);
        perRound += num;
    }
    perRound += ", ref_s";
    for (const Round& r : R) {
        std::snprintf(num, sizeof(num), " %.4f", r.refS);
        perRound += num;
    }
    perRound += ", deliver_s";
    for (const Round& r : R) {
        std::snprintf(num, sizeof(num), " %.2f", r.deliverS);
        perRound += num;
    }
    out.notes.push_back(perRound);
    // Wall times in seconds at the reference host speed (see reference.h).
    // The process's first round grows the heap from nothing and runs slow
    // against the reference job, so wall-time medians skip it.
    const size_t first = R.size() > 1 ? 1 : 0;
    auto atRefSpeed = [&](double Round::*field) {
        std::vector<double> v;
        for (size_t i = first; i < R.size(); ++i) {
            v.push_back(R[i].*field * ReferenceJob::kNominalS / R[i].refS);
        }
        return median(v);
    };
    out.endToEnd.push_back({"run_s", atRefSpeed(&Round::runS), "s"});
    out.endToEnd.push_back({"run_cpu_s", atRefSpeed(&Round::cpuS), "s"});
    out.endToEnd.push_back({"setup_s", atRefSpeed(&Round::setupS), "s"});
    out.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    addPercentiles(out, agg, "ack", &Round::ack);
    addPercentiles(out, agg, "deliver", &Round::deliver);
    out.endToEnd.push_back(
        {"ingest_mbps", ratio(sum(R, &Round::ackedMB), sum(R, &Round::windowS)), "MB/s"});
    out.endToEnd.push_back(
        {"deliver_mbps", ratio(sum(R, &Round::deliveredMB), sum(R, &Round::deliverS)), "MB/s"});
    out.endToEnd.push_back({"lts_bytes_per_user_byte",
                            ratio(sum(R, &Round::ltsBytes), sum(R, &Round::userBytes)), "ratio"});
    out.endToEnd.push_back(
        {"store_load_max_min", median(column(R, &Round::storeLoad)), "ratio"});

    auto wallS = [&](Layer l) { return static_cast<double>(agg.wall[size_t(l)].ns) / 1e9 / n; };
    auto selfS = [&](Layer l) {
        return static_cast<double>(agg.wall[size_t(l)].selfNs) / 1e9 / n;
    };
    auto perCallUs = [&](Layer l) {
        const Tracer::Totals& t = agg.wall[size_t(l)];
        return t.calls ? static_cast<double>(t.ns) / 1e3 / static_cast<double>(t.calls) : 0;
    };
    double des = 0, clientEvents = 0, xcore = 0, runS = 0, virtualDriveNs = 0;
    for (const Round& r : R) {
        des += static_cast<double>(r.desEvents);
        clientEvents += static_cast<double>(r.clientEvents);
        xcore += static_cast<double>(r.xcore);
        runS += r.runS;
        virtualDriveNs += r.phaseVirtualS * 1e9 * r.drives;
    }
    const double phaseUserBytes = sum(R, &Round::phaseUserBytes);
    const double ltsReadBytes =
        std::max(0.0, L.c("sim.lts.bytes") - sum(R, &Round::ltsWrittenPhase));

    for (size_t l = 0; l < agg.wall.size(); ++l) {
        out.layers.push_back({layerName(Layer(l)), wallS(Layer(l)), selfS(Layer(l)),
                              static_cast<double>(agg.wall[l].calls) / n});
    }

    auto& P = out.perLayer;
    P.push_back({"client.write_call_us", perCallUs(Layer::ClientWrite), "us"});
    P.push_back({"client.read_call_us", perCallUs(Layer::ClientRead), "us"});
    P.push_back({"sim.run_self_s", selfS(Layer::SimRun), "s"});
    P.push_back({"bench.self_s", selfS(Layer::BenchGen), "s"});
    P.push_back({"bench.check_s", wallS(Layer::BenchCheck), "s"});
    P.push_back({"bench.run_wall_s", median(column(R, &Round::runS, first)), "s"});
    P.push_back({"bench.setup_wall_s", median(column(R, &Round::setupS, first)), "s"});
    P.push_back({"bench.ref_s", median(column(R, &Round::refS, first)), "s"});
    P.push_back({"setup.cluster_s", median(column(R, &Round::clusterS)), "s"});
    P.push_back({"setup.streams_s", median(column(R, &Round::streamsS)), "s"});
    P.push_back({"setup.readers_s", median(column(R, &Round::readersS)), "s"});
    P.push_back({"setup.backlog_s", median(column(R, &Round::backlogS)), "s"});
    P.push_back({"sim.des_events_per_client_event", ratio(des, clientEvents), "ratio"});
    P.push_back({"sim.des_events_per_s", ratio(des, runS), "1/s"});
    P.push_back({"sim.xcore_messages", xcore / n, "count"});
    P.push_back({"sim.disk.util", ratio(L.c("sim.disk.busy_ns"), virtualDriveNs), "ratio"});
    P.push_back({"sim.net.queue_p99_ms", L.pMs("sim.net.queue_ns", 99), "ms"});
    P.push_back({"sim.lts.op_p99_ms", L.pMs("sim.lts.op_ns", 99), "ms"});
    P.push_back({"client.events_per_block",
                 ratio(L.c("client.writer.events"), L.c("client.writer.blocks")), "ratio"});
    P.push_back({"client.batch_wait_p50_ms", L.pMs("trace.write.0_client_batch_wait_ns", 50),
                 "ms"});
    P.push_back({"client.batch_wait_p99_ms", L.pMs("trace.write.0_client_batch_wait_ns", 99),
                 "ms"});
    P.push_back({"client.read_dispatch_p99_ms", L.pMs("trace.read.0_dispatch_ns", 99), "ms"});
    P.push_back({"store.queue_p99_ms", L.pMs("trace.write.1_store_queue_ns", 99), "ms"});
    P.push_back({"store.ops_per_frame",
                 ratio(L.c("store.ops.enqueued"), L.c("store.frames.closed")), "ratio"});
    P.push_back({"store.throttle_ms", L.c("store.throttle.ns") / 1e6 / n, "ms"});
    P.push_back({"store.writer.flush_p99_ms", L.pMs("store.writer.flush_ns", 99), "ms"});
    P.push_back({"store.cache.hit_ratio",
                 ratio(L.c("store.cache.read_hits"),
                       L.c("store.cache.read_hits") + L.c("store.cache.read_misses")),
                 "ratio"});
    P.push_back({"store.read.lts_fetches", L.c("store.read.lts_fetches") / n, "count"});
    P.push_back({"store.read.coalesced", L.c("store.read.coalesced") / n, "count"});
    P.push_back({"store.prefetch.hit_ratio",
                 ratio(L.c("store.prefetch.hits"), L.c("store.prefetch.issued")), "ratio"});
    P.push_back({"store.prefetch.wasted_mb", L.c("store.prefetch.wasted_bytes") / kMiB / n, "MB"});
    P.push_back({"store.writer.flushes", L.c("store.writer.flushes") / n, "count"});
    P.push_back({"wal.commit_p50_ms", L.pMs("trace.write.2_wal_commit_ns", 50), "ms"});
    P.push_back({"wal.commit_p99_ms", L.pMs("trace.write.2_wal_commit_ns", 99), "ms"});
    P.push_back({"wal.journal_sync_p99_ms", L.pMs("trace.write.3_journal_sync_ns", 99), "ms"});
    P.push_back({"wal.entries_per_flush",
                 ratio(L.c("wal.bookie.adds"), L.c("wal.bookie.journal.flushes")), "ratio"});
    P.push_back({"wal.bytes_per_user_byte", ratio(L.c("wal.bookie.add_bytes"), phaseUserBytes),
                 "ratio"});
    P.push_back({"lts.codec.ratio",
                 ratio(L.c("lts.codec.raw_bytes"), L.c("lts.codec.stored_bytes")), "ratio"});
    P.push_back({"lts.decode_p99_ms", L.pMs("lts.codec.decode_ns", 99), "ms"});
    P.push_back({"lts.read_amplification",
                 ratio(ltsReadBytes, sum(R, &Round::deliveredMB) * kMiB), "ratio"});
    P.push_back({"lts.checksum_failures", L.c("lts.checksum_failures"), "count"});
    P.push_back({"ctrl.rebalance.moves", L.c("ctrl.rebalance.moves") / n, "count"});
    P.push_back({"ctrl.rebalance.ticks", L.c("ctrl.rebalance.ticks") / n, "count"});
    P.push_back({"client.probe_retries", static_cast<double>(agg.probeRetries) / n, "count"});
    P.push_back({"client.probe_timeouts", static_cast<double>(agg.probeTimeouts) / n, "count"});
    P.push_back({"bench.ack_samples", sampleCount(R, &Round::ack), "count"});
    P.push_back({"bench.deliver_samples", sampleCount(R, &Round::deliver), "count"});
}

}  // namespace

RunResult runWorkload(const RunOptions& opt) {
    RunResult out;
    void (*round)(Agg&, uint64_t, const Sizes&) = nullptr;
    if (opt.workload == "ingest") {
        round = ingestRound;
    } else if (opt.workload == "catchup") {
        round = catchupRound;
    } else if (opt.workload == "fleet") {
        round = fleetRound;
    } else {
        out.ok = false;
        out.notes.push_back("unknown workload: " + opt.workload);
        return out;
    }

    Sizes z;
    z.tiny = opt.tiny;
    // Each round is a fixed amount of virtual work taking about two wall
    // seconds; --seconds sets how many rounds are measured.
    z.rounds = opt.tiny ? 1 : std::max(1, static_cast<int>(std::lround(opt.seconds / 2)));
    Agg agg(opt.trace);
    ReferenceJob ref;
    double refBefore = ref.run();
    for (int i = 0; i < z.rounds && agg.ok; ++i) {
        round(agg, splitmix(opt.seed * 0x100 + static_cast<uint64_t>(i)), z);
        const double refAfter = ref.run();
        if (agg.ok) agg.rounds.back().refS = (refBefore + refAfter) / 2;
        refBefore = refAfter;
    }
    if (agg.ok) buildMetrics(agg, out);
    if (opt.trace && !opt.traceOut.empty() && !agg.tracer.writeChromeTrace(opt.traceOut)) {
        agg.notes.push_back("could not write " + opt.traceOut);
    }

    const CheckCounts& k = agg.counts;
    out.ok = agg.ok;
    out.attempted = k.attempted + agg.fleetOffered;
    out.failures = {{"write_errors", k.writeErrors},   {"unacked", k.unacked},
                    {"undelivered", k.undelivered},    {"duplicates", k.duplicates},
                    {"out_of_order", k.outOfOrder},    {"corrupt", k.corrupt},
                    {"reader_errors", agg.readerErrors}, {"fleet_unacked", agg.fleetUnacked}};
    for (const auto& [kind, count] : out.failures) out.failed += count;
    out.notes.insert(out.notes.end(), agg.notes.begin(), agg.notes.end());
    return out;
}

}  // namespace perfbench
