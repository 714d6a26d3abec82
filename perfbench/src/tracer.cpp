#include "tracer.h"

#include <cstdio>

namespace perfbench {

const char* layerName(Layer l) {
    switch (l) {
        case Layer::ClientWrite: return "client.write";
        case Layer::ClientRead: return "client.read";
        case Layer::SimRun: return "sim.run";
        case Layer::BenchGen: return "bench.gen";
        case Layer::BenchCheck: return "bench.check";
        case Layer::kCount: break;
    }
    return "?";
}

void Tracer::open(Layer layer, uint64_t eventId) {
    stack_.push_back(Frame{layer, eventId, Clock::now(), 0});
}

void Tracer::close() {
    Frame f = stack_.back();
    stack_.pop_back();
    auto end = Clock::now();
    int64_t dur = std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start).count();
    Totals& t = totals_[static_cast<size_t>(f.layer)];
    t.ns += dur;
    t.selfNs += dur - f.childNs;
    ++t.calls;
    if (!stack_.empty()) stack_.back().childNs += dur;
    if (f.eventId != 0) {
        int64_t start =
            std::chrono::duration_cast<std::chrono::nanoseconds>(f.start - origin_).count();
        samples_.push_back(Sample{layerName(f.layer), f.eventId, start, dur, true});
    }
}

void Tracer::virtualStage(const char* name, uint64_t eventId, int64_t startNs, int64_t endNs) {
    if (enabled_) samples_.push_back(Sample{name, eventId, startNs, endNs - startNs, false});
}

bool Tracer::writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    // pid 1: wall-clock spans of the benchmark process; pid 2: the modeled
    // system's virtual-time stages of the same sampled events.
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
                 "\"wall clock\"}},\n{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"virtual time\"}}");
    for (const Sample& s : samples_) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"event\":%llu}}",
                     s.name, s.wall ? 1 : 2,
                     static_cast<unsigned long long>(s.wall ? 1 : s.eventId % 64),
                     static_cast<double>(s.startNs) / 1e3, static_cast<double>(s.durNs) / 1e3,
                     static_cast<unsigned long long>(s.eventId));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
