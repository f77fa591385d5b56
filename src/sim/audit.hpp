/**
 * @file
 * Runtime network auditor: periodic invariant checks plus a
 * deadlock/livelock watchdog with forensic snapshots.
 *
 * The auditor is an ordinary Component appended to the engine after the
 * machine's own components, so when it ticks, every router, adapter, and
 * endpoint has already completed the current cycle and all conservation
 * sums are stable. Like the other telemetry layers it follows the
 * zero-overhead-when-unbound discipline: an unaudited machine never
 * constructs one, and nothing on the hot path consults it.
 *
 * The auditor itself is machine-agnostic. The Machine constructs it
 * with three hooks: the invariant checks (flit conservation, credit
 * conservation, VC legality - see core/machine_audit.cpp; each chip's
 * share is a visitor of its one walk over buffers and credit loops in
 * core/chip_audit.cpp), a progress probe for the watchdog, and a
 * snapshot builder; this class owns only the scheduling, the violation
 * log (the first kMaxRecordedViolations details, every violation
 * counted), the stall bookkeeping, and the trip decision.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "debug/snapshot.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"

namespace anton2 {

class MetricsRegistry;

struct AuditConfig
{
    /** Run invariant checks every this many cycles; 0 disables them. */
    Cycle audit_interval = 1024;
    /** Probe forward progress every this many cycles; 0 disables the
     * watchdog. */
    Cycle watchdog_interval = 1024;
    /** Ejection-stall length (cycles with work in flight but nothing
     * delivered) at which the watchdog trips. */
    Cycle stall_threshold = 20000;
};

/** What the watchdog sees each probe: cumulative progress counters plus
 * the oldest in-flight packet's injection cycle (kNoCycle when idle). */
struct ProgressProbe
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t in_network = 0; ///< packets accepted but not delivered
    Cycle oldest_birth = kNoCycle;
};

class Auditor : public Component
{
  public:
    using ProbeFn = std::function<ProgressProbe()>;
    using SnapshotFn =
        std::function<MachineSnapshot(Cycle, const std::string &reason)>;

    /**
     * @param invariants Inspects machine state and calls report() for
     * every violation it finds.
     * @param probe The watchdog's progress counters.
     * @param snapshot The forensic snapshot taken when the watchdog trips.
     */
    Auditor(const AuditConfig &cfg, std::function<void()> invariants,
            ProbeFn probe, SnapshotFn snapshot)
        : cfg_(cfg), invariants_(std::move(invariants)),
          probe_(std::move(probe)), snapshot_(std::move(snapshot))
    {
    }

    /** Record one invariant violation found by check @p check. */
    void report(const std::string &check, const std::string &detail);

    void tick(Cycle now) override;

    /** On-demand audit pass outside the periodic schedule (tests). */
    void runChecksNow(Cycle now);

    // --- results ------------------------------------------------------
    struct Violation
    {
        Cycle cycle = 0;
        std::string check;
        std::string detail;
    };

    /** Violation details recorded; later ones are only counted. */
    static constexpr std::size_t kMaxRecordedViolations = 64;

    std::uint64_t auditsRun() const { return audits_run_; }
    std::uint64_t violationCount() const { return violation_count_; }
    const std::vector<Violation> &violations() const { return violations_; }
    bool tripped() const { return trip_.has_value(); }
    /** The forensic snapshot taken when the watchdog tripped, if any. */
    const MachineSnapshot *tripSnapshot() const
    {
        return trip_ ? &*trip_ : nullptr;
    }

    /** Publish machine.audit.* gauges into @p reg (called by the machine's
     * metrics refresh, never from the tick path). */
    void publishGauges(MetricsRegistry &reg) const;

    /** Deterministic JSON summary for bench --json reports. */
    std::string reportJson() const;

  private:
    void watchdogProbe(Cycle now);

    AuditConfig cfg_;
    std::function<void()> invariants_;
    ProbeFn probe_;
    SnapshotFn snapshot_;

    Cycle next_audit_ = 0;
    Cycle next_watchdog_ = 0;

    std::uint64_t audits_run_ = 0;
    std::uint64_t violation_count_ = 0;
    std::vector<Violation> violations_;
    Cycle current_cycle_ = 0; ///< cycle being audited (for report())

    // Watchdog state.
    std::uint64_t last_delivered_ = 0;
    Cycle last_progress_ = 0;
    Cycle ejection_stall_ = 0;
    Cycle oldest_age_ = 0;
    std::uint64_t trips_ = 0;
    std::optional<MachineSnapshot> trip_;
};

} // namespace anton2
