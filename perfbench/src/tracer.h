// Wall-clock spans around the benchmark's own calls into each layer.
//
// Disabled, a span is one predictable branch. Enabled, each span reads the
// steady clock twice and adds its duration to its layer's total; the
// enclosing span's child time grows by the same amount, so a layer's self
// time is its total minus the time of spans nested inside it. Spans of a
// sampled subset of events are also kept individually (spans of one event
// share an id), together with their virtual-time stages, and written out as
// Chrome trace-event JSON when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
    ClientWrite,  // EventWriter::writeEvent
    ClientRead,   // EventReader::readNextEvent
    SimRun,       // Machine::runUntil (dispatch + every modeled component)
    BenchGen,     // open-loop generator: payload build + bookkeeping
    BenchCheck,   // ack bookkeeping + delivery checker
    kCount
};

const char* layerName(Layer l);

class Tracer {
public:
    struct Totals {
        int64_t ns = 0;
        int64_t selfNs = 0;
        uint64_t calls = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    class Span {
    public:
        Span(Tracer& t, Layer layer, uint64_t eventId = 0) : t_(t.enabled_ ? &t : nullptr) {
            if (t_ != nullptr) t_->open(layer, eventId);
        }
        ~Span() {
            if (t_ != nullptr) t_->close();
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

    private:
        Tracer* t_;
    };

    /// Records a virtual-time stage of a sampled event (ns of virtual time).
    void virtualStage(const char* name, uint64_t eventId, int64_t startNs, int64_t endNs);

    const Totals& totals(Layer l) const { return totals_[static_cast<size_t>(l)]; }

    /// Writes the sampled spans as Chrome trace-event JSON.
    bool writeChromeTrace(const std::string& path) const;

private:
    using Clock = std::chrono::steady_clock;
    struct Frame {
        Layer layer;
        uint64_t eventId;
        Clock::time_point start;
        int64_t childNs;
    };
    struct Sample {
        const char* name;
        uint64_t eventId;
        int64_t startNs;
        int64_t durNs;
        bool wall;
    };

    void open(Layer layer, uint64_t eventId);
    void close();

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::array<Totals, static_cast<size_t>(Layer::kCount)> totals_{};
    std::vector<Frame> stack_;
    std::vector<Sample> samples_;
};

}  // namespace perfbench
