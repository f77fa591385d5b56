/**
 * @file
 * Machine-side assembly of the runtime auditor: the machine-wide invariant
 * checks (flit conservation, torus-link credit conservation, per-chip
 * invariants, which a checkpoint restore also runs), the watchdog
 * progress probe, the forensic-snapshot builder, and the seeded
 * negative-control faults.
 *
 * Everything inside one chip - on-chip credit conservation, buffer
 * sanity, VC-class legality, snapshot rows, and the census the flit sum
 * and the age watermark read - is a visitor of the chip's one walk over
 * its buffers and credit loops (core/chip_audit.cpp). This file owns what
 * spans two chips: the torus links, whose conservation sums need the
 * peer adapter's ingress buffer and queued credits.
 */
#include "core/machine.hpp"

#include <algorithm>
#include <string>

namespace anton2 {

namespace {

std::uint64_t
phitsInFlight(const Wire<Phit> &w)
{
    std::uint64_t n = 0;
    w.forEachInFlight([&n](const Phit &) { ++n; });
    return n;
}

} // namespace

ProgressProbe
Machine::progressProbe() const
{
    ProgressProbe p;
    p.delivered = delivered_;
    std::uint64_t pending = 0;
    for (const auto &cp : chips_) {
        for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
            const EndpointAdapter &ep = cp->endpoint(e);
            p.injected += ep.injected();
            pending += ep.pendingInjections();
        }
        p.oldest_birth =
            std::min(p.oldest_birth, cp->flitCensus().oldest_birth);
    }
    // Packets the network has accepted (or is wedged accepting) that the
    // ejection side has not retired - the watchdog's "work in flight".
    p.in_network = p.injected + pending - p.delivered;
    return p;
}

MachineSnapshot
Machine::buildSnapshot(Cycle now, const std::string &reason)
{
    MachineSnapshot snap;
    snap.now = now;
    snap.reason = reason;
    const ProgressProbe p = progressProbe();
    snap.injected = p.injected;
    snap.delivered = p.delivered;
    snap.oldest_age =
        p.oldest_birth == kNoCycle ? 0 : now - p.oldest_birth;
    snap.ejection_stall = delivered_ > 0 ? now - last_delivery_ : now;
    for (const auto &cp : chips_)
        cp->collectSnapshot(now, snap);
    return snap;
}

MachineSnapshot
Machine::dumpSnapshot(const std::string &reason)
{
    MachineSnapshot snap = buildSnapshot(engine_.now(), reason);
    analyzeWaitsFor(snap);
    return snap;
}

void
Machine::applyFault(const NetworkFault &f)
{
    switch (f.kind) {
      case NetworkFault::Kind::WithholdTorusCredits:
        chip(f.node)
            .channelAdapter(f.dim, f.dir, f.slice)
            .faultWithholdTorusCredits(f.vc);
        break;
      case NetworkFault::Kind::NoDatelinePromotion:
        chip(f.node).channelAdapter(f.dim, f.dir, f.slice).faultNoPromotion();
        break;
    }
}

void
Machine::auditInvariants(const AuditReport &report) const
{
    // Every flit the endpoints ever put into the network is either still
    // resident (a buffer or a wire) or was ejected. Multicast expansion
    // clones flits inside adapters - each copy ejects flits that were
    // never counted at injection - so once any multicast has been sent
    // the global equality no longer holds and is skipped for good; the
    // per-link sent/received balance below holds regardless.
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
    std::uint64_t delivered_eps = 0;
    for (const auto &cp : chips_) {
        for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
            const EndpointAdapter &ep = cp->endpoint(e);
            injected += ep.flitsInjected();
            ejected += ep.flitsEjected();
            delivered_eps += ep.delivered();
        }
    }
    if (delivered_eps != delivered_) {
        report("flit_conservation",
               "machine.delivered " + std::to_string(delivered_)
                   + " != endpoint deliveries "
                   + std::to_string(delivered_eps));
    }

    std::uint64_t resident = 0;
    for (const auto &cp : chips_) {
        const Chip::FlitCensus c = cp->flitCensus();
        resident += c.buffered + c.on_wires;
    }
    for (const Channel &ch : torus_channels_)
        ch.data.forEachInFlight([&](const Phit &) { ++resident; });
    if (mcast_sends_ == 0 && injected != ejected + resident) {
        report("flit_conservation",
               "flits injected " + std::to_string(injected) + " != ejected "
                   + std::to_string(ejected) + " + resident "
                   + std::to_string(resident));
    }

    // Every torus link in wiring order: its channel, the sending
    // adapter's chip and index, and both adapters.
    auto forEachLink = [this](auto &&fn) {
        std::size_t idx = 0;
        for (NodeId n = 0; n < geom_.numNodes(); ++n) {
            for (int dim = 0; dim < 3; ++dim) {
                for (Dir dir : kDirs) {
                    const NodeId peer = geom_.neighbor(n, dim, dir);
                    for (int slice = 0; slice < kNumSlices; ++slice) {
                        const int ca =
                            layout_.channelAdapterIndex(dim, dir, slice);
                        fn(torus_channels_[idx++], *chips_[n], ca,
                           chips_[n]->channelAdapter(ca),
                           chips_[peer]->channelAdapter(
                               layout_.channelAdapterIndex(
                                   dim, opposite(dir), slice)));
                    }
                }
            }
        }
    };

    // Per torus link: everything the sender serialized either reached
    // the peer or is on the wire.
    forEachLink([&](const Channel &ch, const Chip &chip, int ca,
                    const ChannelAdapter &snd, const ChannelAdapter &rcv) {
        const std::uint64_t wire = phitsInFlight(ch.data);
        if (snd.flitsSent() != rcv.flitsReceived() + wire) {
            report("flit_conservation",
                   chip.egressLinkName(ca, 0) + ": sent "
                       + std::to_string(snd.flitsSent()) + " != received "
                       + std::to_string(rcv.flitsReceived()) + " + on-wire "
                       + std::to_string(wire));
        }
    });

    // Torus-link credit conservation: for every link VC, the sender's
    // free credits plus every place a consumed credit can be - reserved
    // unsent flits at the sender, phits on the wire, flits in the peer's
    // ingress buffer, credits queued at the peer, credits on the return
    // wire - must equal the advertised buffer depth. A withheld or lost
    // credit shows up here as a permanently short sum.
    forEachLink([&](const Channel &ch, const Chip &chip, int ca,
                    const ChannelAdapter &snd, const ChannelAdapter &rcv) {
        for (int v = 0; v < cfg_.chip.numVcs(); ++v) {
            const int lhs = snd.torusCredits().available(v)
                            + snd.egressReservedFlits(v)
                            + inFlightPhits(ch.data, v)
                            + rcv.ingressBuffer(v).occupancy()
                            + rcv.pendingTorusCredits(v)
                            + inFlightCredits(ch.credit, v);
            const int depth = snd.torusCredits().initialPerVc();
            if (lhs != depth) {
                report("credit_conservation",
                       chip.egressLinkName(ca, v) + ": accounted credits "
                           + std::to_string(lhs) + " != depth "
                           + std::to_string(depth));
            }
        }
    });

    // On-chip invariants (buffer sanity, adapter/endpoint/router credit
    // conservation, VC-class legality) report under their own names.
    for (const auto &cp : chips_)
        cp->auditInvariants(report);
}

void
Machine::doEnableAudit(const AuditConfig &cfg)
{
    audit_ = std::make_unique<Auditor>(
        cfg,
        [this] {
            auditInvariants([this](const std::string &check,
                                   const std::string &detail) {
                audit_->report(check, detail);
            });
        },
        [this] { return progressProbe(); },
        [this](Cycle now, const std::string &reason) {
            return buildSnapshot(now, reason);
        });
    Auditor &a = *audit_;

    // Appended after every chip component (they registered at
    // construction), so each audit pass sees a settled post-tick state.
    engine_.add(a);
    // Audit and watchdog passes walk live component state, so their
    // firing cycles must be window-final: align lookahead barriers to
    // both intervals so a windowed run inspects exactly the state a
    // serial per-cycle run would at those cycles.
    if (cfg.audit_interval > 1)
        engine_.addBarrierAlignment(cfg.audit_interval,
                                    engine_.now() % cfg.audit_interval);
    if (cfg.watchdog_interval > 1)
        engine_.addBarrierAlignment(cfg.watchdog_interval,
                                    engine_.now() % cfg.watchdog_interval);
}

} // namespace anton2
