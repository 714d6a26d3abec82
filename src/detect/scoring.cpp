#include "detect/scoring.h"

#include <algorithm>

#include "common/json.h"
#include "detect/monitor.h"

namespace pravega::detect {

double ScoreReport::classRecall(const std::string& klass) const {
    for (const ClassScore& c : perClass) {
        if (c.klass == klass) return c.recall;
    }
    return 1.0;  // no faults of this class: vacuously detected
}

ScoreReport score(const std::vector<FaultWindow>& faults, const std::vector<Alarm>& alarms,
                  ScoreConfig cfg) {
    ScoreReport rep;
    rep.faults = static_cast<int>(faults.size());
    rep.totalAlarms = static_cast<int>(alarms.size());

    std::vector<bool> alarmMatched(alarms.size(), false);
    double latencySumMs = 0;
    int latencyCount = 0;

    for (const FaultWindow& fw : faults) {
        // First alarm inside [start, end + grace] detects this fault.
        sim::TimePoint firstHit = -1;
        for (size_t i = 0; i < alarms.size(); ++i) {
            const Alarm& a = alarms[i];
            if (a.at < fw.start || a.at > fw.end + cfg.grace) continue;
            alarmMatched[i] = true;
            if (firstHit < 0) firstHit = a.at;
        }

        ClassScore* cs = nullptr;
        for (ClassScore& c : rep.perClass) {
            if (c.klass == fw.klass) { cs = &c; break; }
        }
        if (cs == nullptr) {
            rep.perClass.push_back(ClassScore{fw.klass});
            cs = &rep.perClass.back();
        }
        ++cs->faults;
        if (firstHit >= 0) {
            ++cs->detected;
            ++rep.detected;
            double latMs = sim::toMillis(firstHit - fw.start);
            latencySumMs += latMs;
            ++latencyCount;
            // Reuse meanDetectMs as a running sum until the final pass.
            cs->meanDetectMs += latMs;
            cs->maxDetectMs = std::max(cs->maxDetectMs, latMs);
            rep.maxDetectMs = std::max(rep.maxDetectMs, latMs);
        }
    }

    for (ClassScore& c : rep.perClass) {
        c.recall = c.faults > 0 ? static_cast<double>(c.detected) / c.faults : 1.0;
        c.meanDetectMs = c.detected > 0 ? c.meanDetectMs / c.detected : 0;
    }
    for (bool m : alarmMatched) {
        if (m) ++rep.matchedAlarms;
    }
    rep.falsePositives = rep.totalAlarms - rep.matchedAlarms;
    rep.recall = rep.faults > 0 ? static_cast<double>(rep.detected) / rep.faults : 1.0;
    rep.precision =
        rep.totalAlarms > 0 ? static_cast<double>(rep.matchedAlarms) / rep.totalAlarms : 1.0;
    rep.meanDetectMs = latencyCount > 0 ? latencySumMs / latencyCount : 0;
    return rep;
}

std::string ScoreReport::toJson() const {
    std::string out = "{\"faults\":";
    out += std::to_string(faults);
    out += ",\"detected\":";
    out += std::to_string(detected);
    out += ",\"total_alarms\":";
    out += std::to_string(totalAlarms);
    out += ",\"matched_alarms\":";
    out += std::to_string(matchedAlarms);
    out += ",\"false_positives\":";
    out += std::to_string(falsePositives);
    out += ",\"recall\":";
    out += fmtDouble(recall);
    out += ",\"precision\":";
    out += fmtDouble(precision);
    out += ",\"mean_detect_ms\":";
    out += fmtDouble(meanDetectMs);
    out += ",\"max_detect_ms\":";
    out += fmtDouble(maxDetectMs);
    out += ",\"per_class\":[";
    for (size_t i = 0; i < perClass.size(); ++i) {
        const ClassScore& c = perClass[i];
        if (i > 0) out += ",";
        out += "{\"class\":\"";
        out += c.klass;
        out += "\",\"faults\":";
        out += std::to_string(c.faults);
        out += ",\"detected\":";
        out += std::to_string(c.detected);
        out += ",\"recall\":";
        out += fmtDouble(c.recall);
        out += ",\"mean_detect_ms\":";
        out += fmtDouble(c.meanDetectMs);
        out += ",\"max_detect_ms\":";
        out += fmtDouble(c.maxDetectMs);
        out += "}";
    }
    out += "]}";
    return out;
}

std::string detectionRunJson(const std::string& series, const Monitor& monitor,
                             const std::string& groundTruthJson, const ScoreReport& scores) {
    std::string out = "{\"series\":\"";
    out += series;
    out += "\",\"ticks\":";
    out += std::to_string(monitor.ticks());
    out += ",\"ground_truth\":";
    out += groundTruthJson.empty() ? std::string("null") : groundTruthJson;
    out += ",\"alarms\":";
    out += monitor.alarmsJson();
    out += ",\"guardrails\":";
    out += monitor.guardrailsJson();
    out += ",\"scores\":";
    out += scores.toJson();
    out += "}";
    return out;
}

}  // namespace pravega::detect
