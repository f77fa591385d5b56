/**
 * @file
 * Auditor scheduling, violation log, and watchdog trip logic.
 */
#include "sim/audit.hpp"

#include "sim/metrics.hpp"

namespace anton2 {

void
Auditor::report(const std::string &check, const std::string &detail)
{
    ++violation_count_;
    if (violations_.size() < kMaxRecordedViolations)
        violations_.push_back({ current_cycle_, check, detail });
}

void
Auditor::runChecksNow(Cycle now)
{
    current_cycle_ = now;
    invariants_();
    ++audits_run_;
}

void
Auditor::tick(Cycle now)
{
    if (cfg_.audit_interval != 0 && now >= next_audit_) {
        next_audit_ = now + cfg_.audit_interval;
        runChecksNow(now);
    }
    if (cfg_.watchdog_interval != 0 && now >= next_watchdog_) {
        next_watchdog_ = now + cfg_.watchdog_interval;
        watchdogProbe(now);
    }
}

void
Auditor::watchdogProbe(Cycle now)
{
    const ProgressProbe p = probe_();
    oldest_age_ =
        p.oldest_birth == kNoCycle ? 0 : now - p.oldest_birth;
    // Progress = a delivery since the last probe, or an empty network
    // (idle is not a stall). The stall clock measures how long packets
    // have been in flight with the ejection side completely silent.
    if (p.delivered != last_delivered_ || p.in_network == 0) {
        last_delivered_ = p.delivered;
        last_progress_ = now;
    }
    ejection_stall_ = now - last_progress_;
    if (trip_ || ejection_stall_ < cfg_.stall_threshold
        || p.in_network == 0)
        return;

    // Wedged: no ejection for stall_threshold cycles with packets in
    // flight. Take the forensic snapshot and classify it.
    ++trips_;
    MachineSnapshot snap = snapshot_(now, "watchdog");
    snap.oldest_age = oldest_age_;
    snap.ejection_stall = ejection_stall_;
    analyzeWaitsFor(snap);
    if (snap.verdict != "deadlock")
        snap.verdict = "livelock";
    trip_ = std::move(snap);
}

void
Auditor::publishGauges(MetricsRegistry &reg) const
{
    reg.setGauge("machine.audit.audits",
                 static_cast<double>(audits_run_));
    reg.setGauge("machine.audit.violations",
                 static_cast<double>(violation_count_));
    reg.setGauge("machine.audit.watchdog_trips",
                 static_cast<double>(trips_));
    reg.setGauge("machine.audit.ejection_stall",
                 static_cast<double>(ejection_stall_));
    reg.setGauge("machine.audit.oldest_age",
                 static_cast<double>(oldest_age_));
    reg.setGauge("machine.audit.deadlock",
                 trip_ && trip_->verdict == "deadlock" ? 1.0 : 0.0);
    reg.setGauge("machine.audit.livelock",
                 trip_ && trip_->verdict == "livelock" ? 1.0 : 0.0);
}

std::string
Auditor::reportJson() const
{
    JsonWriter w;
    w.beginObject(JsonWriter::Inline)
        .key("audits").integer(audits_run_)
        .key("violations").integer(violation_count_)
        .key("violation_samples").beginArray(JsonWriter::Inline);
    for (const auto &v : violations_) {
        w.beginObject(JsonWriter::Inline)
            .key("cycle").number(v.cycle).key("check").string(v.check)
            .key("detail").string(v.detail).end();
    }
    w.end()
        .key("watchdog").beginObject(JsonWriter::Inline)
        .key("tripped").boolean(trip_.has_value())
        .key("trips").integer(trips_)
        .key("verdict").string(trip_ ? trip_->verdict : "none")
        .key("trip_cycle")
        .number(trip_ ? static_cast<double>(trip_->now) : -1.0)
        .key("ejection_stall").number(ejection_stall_)
        .key("oldest_age").number(oldest_age_)
        .key("culprits").beginArray(JsonWriter::Inline);
    if (trip_) {
        for (const std::string &c : trip_->culprits)
            w.string(c);
    }
    return w.end().end().end().take();
}

} // namespace anton2
