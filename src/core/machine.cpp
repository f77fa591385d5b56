#include "core/machine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/chrome_trace.hpp"
#include "trace/flight_record.hpp"

namespace anton2 {

Cycle
Machine::torusLatency(NodeId n, int dim, Dir dir) const
{
    return cfg_.use_packaging
               ? PackagingModel::linkLatency(geom_, n, dim, dir)
               : cfg_.fixed_torus_latency;
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      geom_(cfg.radix),
      layout_(cfg.chip.endpoints_per_node),
      routes_(RouteTable::build(layout_, cfg.chip.dir_order)),
      rng_(cfg.seed)
{
    if (geom_.ndims() != 3)
        throw std::invalid_argument("Machine models a 3-D torus");
    // On-chip latencies are checked by static_asserts in core/chip.hpp.
    if (!cfg_.use_packaging && cfg_.fixed_torus_latency < 1)
        throw std::invalid_argument(
            "MachineConfig: fixed_torus_latency must be >= 1 (a "
            "zero-latency torus link would make evaluation order "
            "observable)");

    // Each chip keeps its packets in its own slab; its lane stages the
    // releases of packets homed on other chips.
    chips_.reserve(geom_.numNodes());
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        chips_.push_back(std::make_unique<Chip>(n, cfg_.chip, layout_,
                                                geom_, routes_, releases_));
    }

    // The lookahead bound: shards may tick up to k cycles between
    // barriers only if every cross-shard wire has latency >= k, and the
    // only cross-shard wires are the torus channels below (both their
    // data and credit directions run at the link latency). So the bound
    // is the minimum link latency across the machine.
    lookahead_cap_ = kNoCycle;
    Cycle max_link_latency = 1;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs) {
                const Cycle latency = torusLatency(n, dim, dir);
                if (latency < lookahead_cap_)
                    lookahead_cap_ = latency;
                if (latency != kNoCycle && latency > max_link_latency)
                    max_link_latency = latency;
            }
        }
    }
    if (lookahead_cap_ == kNoCycle)
        lookahead_cap_ = 1;

    // Size the total-latency histogram bins with the machine
    // diameter: the worst zero-load path crosses half of every ring at
    // the slowest link (plus per-hop adapter serialization and the
    // on-chip mesh at each end), and congested runs stretch several
    // times past that. A fixed 32-cycle width tops the 64 bins out at
    // 2048 cycles - an 8x8x8 torus with slow links pushes worst-path
    // latencies well beyond it, piling everything into the overflow
    // bin. Width stays a multiple of 32 so small machines keep the
    // legacy binning byte-for-byte.
    double worst_path = 64.0; // injection + both chips' mesh + ejection
    for (std::size_t dim = 0; dim < cfg_.radix.size(); ++dim) {
        worst_path += static_cast<double>(cfg_.radix[dim] / 2)
                      * static_cast<double>(max_link_latency + 24);
    }
    lat_bin_width_ =
        32.0 * std::max(1.0, std::ceil(4.0 * worst_path / (64.0 * 32.0)));

    // Wire the torus: for every (node, dim, dir, slice), one channel from
    // that adapter's egress to the peer node's opposite adapter's ingress.
    // Ring slack sized for the largest window the engine may run (a
    // sender may be up to window-1 cycles ahead of the receiver). The
    // adapters keep pointers to the channels, so the array is reserved
    // to its exact count first and never grows.
    torus_channels_.reserve(static_cast<std::size_t>(geom_.numNodes()) * 3
                            * std::size(kDirs) * kNumSlices);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs) {
                const NodeId peer = geom_.neighbor(n, dim, dir);
                const Cycle latency = torusLatency(n, dim, dir);
                for (int slice = 0; slice < kNumSlices; ++slice) {
                    assert(torus_channels_.size()
                           < torus_channels_.capacity());
                    Channel &ch = torus_channels_.emplace_back(
                        latency, latency, lookahead_cap_);
                    chip(n).channelAdapter(dim, dir, slice)
                        .connectTorusOut(ch, kBufFlitsPerVc);
                    chip(peer)
                        .channelAdapter(dim, opposite(dir), slice)
                        .connectTorusIn(ch);
                }
            }
        }
    }

    // The slowest torus link bounds how far ahead an arrival can wake
    // its receiver; the on-chip wires are all faster.
    engine_.setWakeHorizon(max_link_latency);
    for (auto &c : chips_)
        c->registerWith(engine_);

    // Delivery accounting and the programming-model hooks on every
    // endpoint adapter. Delivery side effects are deferred to the
    // engine's serial phase (serialPhase below): they reach machine-wide
    // state - the latency aggregates, the RNG via read-reply
    // generation, software handlers - so they must run in one canonical
    // order whether chips ticked on one thread or many. Each node's
    // endpoints (at most 32, the free router ports) flag staged
    // deliveries in the node's word, which only that chip's engine lane
    // writes.
    staged_deliveries_.assign(geom_.numNodes(), 0);
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
            auto &ep = chip(n).endpoint(e);
            ep.deferDeliveries(staged_deliveries_[n],
                               static_cast<unsigned>(e));
            ep.setDeliverFn([this](const PacketPtr &pkt, Cycle head_at,
                                   Cycle now) {
                ++delivered_;
                last_delivery_ = now;
                latency_.add(static_cast<double>(now - pkt->inject_time));
                if (m_delivered_ != nullptr) {
                    m_delivered_->inc();
                    m_hops_->add(pkt->hops);
                    // Source queueing (birth -> injection), network
                    // (injection -> head arrival), destination (head
                    // arrival -> reassembled).
                    m_latency_[0]->add(
                        static_cast<double>(pkt->inject_time - pkt->birth));
                    m_latency_[1]->add(
                        static_cast<double>(head_at - pkt->inject_time));
                    m_latency_[2]->add(static_cast<double>(now - head_at));
                    m_latency_total_->add(
                        static_cast<double>(now - pkt->birth));
                }
                if (deliver_hook_)
                    deliver_hook_(pkt, now);
            });
            ep.setReadFn([this](const PacketPtr &req, Cycle) {
                // Generate the read reply in the Reply traffic class. It
                // routes by a second draw after makeWrite's: both are in
                // the RNG stream every export depends on.
                Packet *reply = makeWrite(req->dst, req->src, req->pattern,
                                          req->size_flits);
                reply->tc = TrafficClass::Reply;
                reply->op = OpKind::ReadReply;
                randomRoute(geom_, reply->src.node, reply->dst.node, rng_,
                            reply->route);
                chip(reply->src.node)
                    .setExit(*reply, reply->route.nextDim());
                send(reply);
            });
        }
    }

    engine_.addSerialPhase([this](Cycle now) { serialPhase(now); });
    // Thread count and window are fixed from here on: the release and
    // packet-event staging are sized for the lanes and the largest
    // window once.
    engine_.setThreads(cfg_.threads);
    engine_.setWindow(cfg_.lookahead == 0 || cfg_.lookahead > lookahead_cap_
                          ? lookahead_cap_
                          : cfg_.lookahead);
    releases_.configure(engine_.laneCount());
    events_.configure(engine_.laneCount(),
                      static_cast<std::size_t>(lookahead_cap_));
}

void
Machine::serialPhase(Cycle now)
{
    // The window's staged cross-chip releases land first, in lane
    // order, so slab reuse is the same at any thread count.
    releaseStaged(releases_);
    // Packet events merge before the delivery flush: every hop of a
    // packet delivered this cycle must be applied before the delivery
    // closes its flight into the flow matrix.
    events_.merge(now);
    // Only endpoints that staged a delivery are visited, node-major and
    // endpoint-minor (registration order). A flag clears once its
    // endpoint has nothing pending; deliveries staged for later cycles
    // of the window keep it set.
    for (NodeId n = 0; n < staged_deliveries_.size(); ++n) {
        std::uint64_t &staged = staged_deliveries_[n];
        for (std::uint64_t m = staged; m != 0; m &= m - 1) {
            const int e = std::countr_zero(m);
            EndpointAdapter &ep = chips_[n]->endpoint(e);
            ep.flushDeliveries(now);
            if (!ep.hasPendingDeliveries())
                staged &= ~(std::uint64_t{ 1 } << e);
        }
    }
}

void
Machine::settleIdle()
{
    for (auto &c : chips_)
        c->settleIdle(engine_.now());
}

void
Machine::attachInstrumentation(const Instrumentation &inst)
{
    // Both refused before anything is armed or attached. Every layer
    // takes its baselines and barrier phase at the attach, so a second
    // bundle could not join the first on equal terms; a 0-cycle window
    // would never sample and would shrink every lookahead window to one
    // cycle.
    if (attached_)
        throw std::logic_error(
            "attachInstrumentation: the machine already has its "
            "instrumentation (attach one bundle, after any restore)");
    if (inst.timeseries.has_value() && inst.timeseries->window < 1)
        throw std::invalid_argument(
            "time-series window must be at least 1 cycle");
    attached_ = true;
    for (const NetworkFault &f : inst.faults)
        applyFault(f);
    if (inst.metrics)
        doEnableMetrics(inst.metrics_level);
    if (inst.trace.has_value() || inst.flows.has_value())
        doEnableEvents(inst.trace, inst.flows);
    if (inst.timeseries.has_value())
        doEnableTimeseries(*inst.timeseries);
    if (inst.progress.has_value()) {
        progress_ = std::make_unique<ProgressMeter>(*inst.progress);
        progress_->setStatusFn([this] {
            return "delivered " + std::to_string(delivered_);
        });
        engine_.add(*progress_);
    }
    if (inst.host_profile.has_value()) {
        host_profile_ = std::make_unique<EngineProfiler>(*inst.host_profile);
        engine_.setProfiler(host_profile_.get());
        // Window-aware rate: the profiler's running cycles/s covers
        // exactly the engine loop (not setup or export time), so the
        // meter's rate and ETA stop wobbling with whatever the driver
        // does between windows.
        if (progress_ != nullptr)
            progress_->setRateFn(
                [p = host_profile_.get()] { return p->cyclesPerSec(); });
    }
    if (inst.audit.has_value())
        doEnableAudit(*inst.audit);
}

void
Machine::doEnableMetrics(MetricsLevel level)
{
    metrics_ = std::make_unique<MetricsRegistry>();
    MetricsRegistry &reg = *metrics_;
    reg.setLevel(level);
    // Busy router ticks sample their buffered flits: each router into its
    // own stat at router/full (and per VC at full), below that all of a
    // chip's routers into one stat, which only that chip's lane touches.
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            Router &rt = chip(n).router(r);
            if (level < MetricsLevel::Router) {
                rt.sampleOccupancy(reg.scalar("chip." + std::to_string(n)
                                              + ".noc.vc_occupancy"));
                continue;
            }
            const std::string prefix = routerPath(n, r);
            std::vector<ScalarStat *> per_vc;
            for (int v = 0; level == MetricsLevel::Full
                            && v < rt.config().num_vcs;
                 ++v)
                per_vc.push_back(&reg.scalar(
                    prefix + ".vc." + std::to_string(v) + ".occupancy"));
            rt.sampleOccupancy(reg.scalar(prefix + ".vc_occupancy"),
                               std::move(per_vc));
        }
    }
    m_delivered_ = &reg.counter("machine.delivered");
    m_hops_ = &reg.scalar("machine.hops");
    m_latency_ = { &reg.scalar("machine.latency.source_queue"),
                   &reg.scalar("machine.latency.network"),
                   &reg.scalar("machine.latency.destination") };
    // 64 bins whose width scales with the machine diameter; outliers
    // beyond the last bin still contribute exact moments via stat().
    m_latency_total_ =
        &reg.histogram("machine.latency.total", 64, lat_bin_width_);
    // The exported counts start here, and again at every reset.
    readCounts(count_base_);
    reg.setResetHook([this] { readCounts(count_base_); });
}

void
Machine::readCounts(std::vector<std::uint64_t> &out) const
{
    out.clear();
    for (const auto &c : chips_) {
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            const Router &rt = c->router(r);
            for (int p = 0; p < rt.config().num_ports; ++p)
                out.push_back(rt.flitsIn(p));
            out.insert(out.end(), { rt.sa2Grants(), rt.sa2Losses(),
                                    rt.vaCreditStalls() });
        }
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            const ChannelAdapter &a = c->channelAdapter(ca);
            out.insert(out.end(), { a.flitsSent(), a.flitsReceived(),
                                    a.idleCycles(), a.creditStalls() });
        }
        for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
            const EndpointAdapter &ep = c->endpoint(e);
            out.insert(out.end(), { ep.injected(), ep.delivered() });
        }
    }
}

std::string
Machine::routerPath(NodeId n, RouterId r) const
{
    const MeshGeom &mesh = layout_.mesh();
    return "chip." + std::to_string(n) + ".router."
           + std::to_string(mesh.u(r)) + "." + std::to_string(mesh.v(r));
}

std::string
Machine::metricsJson()
{
    assert(metrics_ != nullptr && "attach metrics first");
    MetricsRegistry &reg = *metrics_;
    const MetricsLevel level = reg.level();
    const bool per_chip = level >= MetricsLevel::Chip;
    const bool per_component = level >= MetricsLevel::Router;
    const auto cycles = static_cast<double>(engine_.now());
    reg.setGauge("machine.cycles", cycles);
    // Sleeping routers book their idle cycles before the stall totals
    // are read.
    settleIdle();

    // Each count less its base, read in readCounts() order.
    std::size_t at = 0;
    auto since = [&](std::uint64_t count) {
        return count - count_base_[at++];
    };
    auto sumInto = [](auto &sum, const auto &v) {
        for (std::size_t i = 0; i < v.size(); ++i)
            sum[i] += v[i];
    };

    // One walk writes every level's paths: per component at router/full,
    // per chip from chip up, machine-wide always. Counts, stall cycles
    // and occupancy samples are integers, so every sum is exact and the
    // machine values are byte-identical at every level. Utilization is
    // the flits an adapter ever sent over what the SerDes could have
    // carried in the elapsed cycles (the paper's normalization: 1.0 =
    // the 89.6 Gb/s effective channel rate). Stall attribution is
    // present once tracing enabled the samplers; its machine totals
    // mirror traceChromeJson()'s otherData.stall_totals.
    CountRollup machine;
    double m_flits = 0.0;
    double m_capacity = 0.0;
    PortStallTotals machine_stalls;
    bool any_stalls = false;
    Cycle oldest = kNoCycle;
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        const Chip &c = chip(n);
        const std::string chip_prefix = "chip." + std::to_string(n);
        CountRollup sum;
        PortStallTotals chip_stalls;
        bool chip_any = false;
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            const Router &rt = c.router(r);
            const std::string prefix = routerPath(n, r);
            std::array<std::uint64_t, kNocCounts.size()> v{};
            for (int p = 0; p < rt.config().num_ports; ++p) {
                const std::uint64_t flits = since(rt.flitsIn(p));
                v[0] += flits;
                if (level == MetricsLevel::Full)
                    reg.setGauge(prefix + ".flits_in.port"
                                     + std::to_string(p),
                                 static_cast<double>(flits));
            }
            v[1] = since(rt.sa2Grants());
            v[2] = since(rt.sa2Losses());
            v[3] = since(rt.vaCreditStalls());
            sumInto(sum.noc, v);
            if (per_component) {
                // At full the per-port counts stand for the total.
                for (std::size_t i = level == MetricsLevel::Full ? 1 : 0;
                     i < v.size(); ++i)
                    reg.setGauge(prefix + "." + kNocCounts[i],
                                 static_cast<double>(v[i]));
                sum.addOccupancy(*rt.occupancyStat());
            }
            const RouterStallSampler *s = rt.stallSampler();
            if (s == nullptr)
                continue;
            chip_any = true;
            const PortStallTotals agg = s->aggregate();
            for (int k = 0; k < kNumStallClasses; ++k) {
                const auto cycles_k = agg.cycles[static_cast<std::size_t>(k)];
                if (per_component)
                    reg.setGauge(prefix + ".stall."
                                     + stallClassName(
                                         static_cast<StallClass>(k)),
                                 static_cast<double>(cycles_k));
                chip_stalls.cycles[static_cast<std::size_t>(k)] += cycles_k;
            }
        }
        // Below router level the chip's routers share one stat.
        if (!per_component)
            sum.addOccupancy(*c.router(0).occupancyStat());

        double c_flits = 0.0;
        double c_capacity = 0.0;
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            const ChannelAdapter &a = c.channelAdapter(ca);
            // Retransmissions stay 0 while torus channels are reliable.
            const std::array<std::uint64_t, kLinkCounts.size()> v{
                since(a.flitsSent()), since(a.flitsReceived()),
                since(a.idleCycles()), since(a.creditStalls()), 0
            };
            sumInto(sum.link, v);
            const double capacity =
                cycles
                * static_cast<double>(kSerdesTokensPerCycle)
                / static_cast<double>(kSerdesTokensPerFlit);
            const auto flits = static_cast<double>(a.flitsSent());
            c_flits += flits;
            c_capacity += capacity;
            if (per_component) {
                const std::string prefix =
                    chip_prefix + ".ca." + layout_.channelShortName(ca);
                writeCounts(reg, prefix, kLinkCounts, v);
                reg.setGauge(prefix + ".utilization",
                             capacity > 0.0 ? flits / capacity : 0.0);
            }
        }
        m_flits += c_flits;
        m_capacity += c_capacity;
        for (EndpointId e = 0; e < layout_.numEndpoints(); ++e) {
            const EndpointAdapter &ep = c.endpoint(e);
            const std::array<std::uint64_t, kEpCounts.size()> v{
                since(ep.injected()), since(ep.delivered())
            };
            sumInto(sum.ep, v);
            if (per_component)
                writeCounts(reg, chip_prefix + ".ep." + std::to_string(e),
                            kEpCounts, v);
        }
        machine.add(sum);

        if (chip_any) {
            any_stalls = true;
            for (int k = 0; k < kNumStallClasses; ++k) {
                const auto cycles_k =
                    chip_stalls.cycles[static_cast<std::size_t>(k)];
                if (per_chip)
                    reg.setGauge(chip_prefix + ".stall."
                                     + stallClassName(
                                         static_cast<StallClass>(k)),
                                 static_cast<double>(cycles_k));
                machine_stalls.cycles[static_cast<std::size_t>(k)] +=
                    cycles_k;
            }
        }
        // Packet-age watermarks: the oldest in-flight packet per chip and
        // machine-wide (the watchdog reads the same probes).
        const Cycle b = chips_[n]->flitCensus().oldest_birth;
        if (b < oldest)
            oldest = b;
        if (!per_chip)
            continue;
        writeRollup(reg, chip_prefix, sum, per_component);
        reg.setGauge(chip_prefix + ".link.utilization",
                     c_capacity > 0.0 ? c_flits / c_capacity : 0.0);
        reg.setGauge(chip_prefix + ".pkt.oldest_age",
                     b == kNoCycle
                         ? 0.0
                         : static_cast<double>(engine_.now() - b));
    }
    assert(at == count_base_.size());
    writeRollup(reg, "machine", machine, true);
    reg.setGauge("machine.link.utilization",
                 m_capacity > 0.0 ? m_flits / m_capacity : 0.0);
    if (any_stalls) {
        for (int k = 0; k < kNumStallClasses; ++k) {
            reg.setGauge(std::string("machine.stall.")
                             + stallClassName(static_cast<StallClass>(k)),
                         static_cast<double>(machine_stalls.cycles[
                             static_cast<std::size_t>(k)]));
        }
    }
    reg.setGauge("machine.pkt.max_age",
                 oldest == kNoCycle
                     ? 0.0
                     : static_cast<double>(engine_.now() - oldest));

    if (audit_ != nullptr)
        audit_->publishGauges(reg);
    return reg.toJson();
}

HotspotDigest
Machine::hotspotDigest(std::size_t k)
{
    HotspotDigest d;
    d.k = k;
    const auto cycles = static_cast<double>(engine_.now());
    const MeshGeom &mesh = layout_.mesh();

    struct AxisAccum
    {
        std::uint64_t flits = 0;
        std::uint64_t links = 0;
        double util_sum = 0.0;
    };
    AxisAccum axes[6];

    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        Chip &c = chip(n);
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            ChannelAdapter &a = c.channelAdapter(ca);
            const double capacity =
                cycles
                * static_cast<double>(kSerdesTokensPerCycle)
                / static_cast<double>(kSerdesTokensPerFlit);
            const double util =
                capacity > 0.0
                    ? static_cast<double>(a.flitsSent()) / capacity
                    : 0.0;
            d.links.push_back({ static_cast<std::int64_t>(n),
                                layout_.channelShortName(ca),
                                a.flitsSent(), util });
            int dim, slice;
            Dir dir;
            layout_.channelAdapterParams(ca, dim, dir, slice);
            AxisAccum &ax =
                axes[static_cast<std::size_t>(dim * 2 + dirIndex(dir))];
            ax.flits += a.flitsSent();
            ++ax.links;
            ax.util_sum += util;
        }
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            d.routers.push_back({ static_cast<std::int64_t>(n),
                                  mesh.u(r), mesh.v(r),
                                  c.router(r).flitsRouted() });
        }
        const Cycle b = c.flitCensus().oldest_birth;
        if (b != kNoCycle) {
            d.oldest.push_back(
                { static_cast<std::int64_t>(n),
                  static_cast<std::uint64_t>(engine_.now() - b) });
        }
    }

    for (int dim = 0; dim < 3; ++dim) {
        for (Dir dir : { Dir::Pos, Dir::Neg }) {
            const AxisAccum &ax =
                axes[static_cast<std::size_t>(dim * 2 + dirIndex(dir))];
            d.axes.push_back(
                { std::string(1, kDimNames[dim]) + dirName(dir),
                  ax.flits, ax.links,
                  ax.links > 0
                      ? ax.util_sum / static_cast<double>(ax.links)
                      : 0.0 });
        }
    }

    finalizeHotspots(d);
    return d;
}

std::string
Machine::runReportJson(std::size_t topk)
{
    assert(metrics_ != nullptr && "attach metrics first");
    if (sampler_ != nullptr)
        sampler_->finalize(engine_.now());

    JsonWriter w;
    w.beginObject()
        .key("metrics_level").string(metricsLevelName(metrics_->level()))
        .key("cycles").number(engine_.now())
        .key("delivered").number(delivered_)
        .key("checkpoint");
    // Checkpoint provenance: where this run's state came from (null for
    // a cold start), so warm-started sweep points are auditable.
    if (restored_from_.empty()) {
        w.null();
    } else {
        w.beginObject(JsonWriter::Inline)
            .key("source").string(restored_from_)
            .key("fork_cycle").number(restored_cycle_).end();
    }
    // The metrics tree keeps the depth-0 layout metricsJson() gives it.
    std::string metrics = metricsJson();
    metrics.pop_back(); // its trailing newline
    w.key("metrics").raw(metrics);
    writeHotspotDigest(w.key("digest"), hotspotDigest(topk));
    if (flow_ != nullptr) {
        // Digest-only at the coarse levels; the dense node^2 matrix
        // joins it at Full. Absent entirely when the probe is detached,
        // so pre-existing reports stay byte-identical.
        flow_->writeReport(w.key("flows"),
                           metrics_->level() >= MetricsLevel::Full,
                           geom_.numNodes());
    }
    w.key("steady_state");
    if (sampler_ == nullptr) {
        w.null();
    } else {
        sampler_->writeSteadyState(w);
        // The windowed series ride along whenever a sampler is attached
        // (absent otherwise, so sampler-free reports keep their bytes).
        sampler_->writeJson(w.key("timeseries"));
    }
    w.key("audit").raw(audit_ != nullptr ? audit_->reportJson() : "null");
    return w.end().take();
}

std::size_t
Machine::packetPoolBytes()
{
    std::size_t total = 0;
    for (const auto &c : chips_)
        total += c->slab().bytes();
    return total;
}

double
Machine::hostRunSeconds() const
{
    return std::chrono::duration<double>(host_.in_run).count();
}

std::string
Machine::hostJson()
{
    using Secs = std::chrono::duration<double>;
    const double build =
        host_.ran ? Secs(host_.first_run - host_.built).count() : 0.0;
    const double run = hostRunSeconds();
    const double wall =
        host_.ran ? Secs(host_.last_run_end - host_.built).count() : 0.0;
    const double cps =
        run > 0.0 ? static_cast<double>(host_.run_cycles) / run : 0.0;
    const double slots = static_cast<double>(host_.run_cycles)
                         * static_cast<double>(engine_.shardedCount());
    const double awake =
        slots > 0.0 ? static_cast<double>(host_.run_ticks) / slots : 0.0;

    std::vector<std::pair<std::string, double>> gauges{
        { "wall_seconds", wall },
        { "cycles", static_cast<double>(host_.run_cycles) },
        { "cycles_per_sec", cps },
        { "ticks_per_sec",
          cps * static_cast<double>(engine_.componentCount()) },
        { "awake_frac", awake },
        { "threads", static_cast<double>(engine_.threads()) },
        { "lookahead_window", static_cast<double>(engine_.window()) },
        { "mem.peak_rss_bytes", static_cast<double>(hostPeakRssBytes()) },
        { "mem.packet_pool_bytes", static_cast<double>(packetPoolBytes()) },
        { "mem.metric_registry_bytes",
          metrics_ != nullptr ? static_cast<double>(metrics_->approxBytes())
                              : 0.0 },
    };
    if (host_profile_ != nullptr) {
        for (auto &g : host_profile_->gauges())
            gauges.push_back(std::move(g));
    }
    gauges.emplace_back("phase.build_seconds", build);
    gauges.emplace_back("phase.run_seconds", run);

    // At depth 1: a bench report holds it under "host".
    JsonWriter w(2, 1);
    w.beginObject();
    for (const auto &[name, value] : gauges)
        w.key("machine.host." + name).number(value);
    return w.end().take();
}

void
Machine::doEnableTimeseries(const TimeseriesConfig &cfg)
{
    // The series, in the order the row below writes them. Machine level:
    // injected and delivered counts per window and the windowed latency
    // mean (the ejection + latency pair feeds the steady-state
    // detector), and the oldest in-flight packet's age: a rising ramp
    // with a silent ejection side is the livelock/deadlock signature the
    // watchdog trips on.
    std::vector<SeriesInfo> series;
    auto add = [&series](std::string name, SeriesKind kind,
                         SeriesScope scope = SeriesScope::Machine,
                         std::int32_t chip = -1) -> SeriesInfo & {
        SeriesInfo &info = series.emplace_back();
        info.name = std::move(name);
        info.scope = scope;
        info.kind = kind;
        info.chip = chip;
        return info;
    };
    add("machine.injected", SeriesKind::Cumulative);
    add("machine.delivered", SeriesKind::Cumulative);
    add("machine.latency_mean", SeriesKind::WindowMean);
    add("machine.pkt.max_age", SeriesKind::Instant);
    const MeshGeom &mesh = layout_.mesh();
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        const std::string chip_prefix = "chip." + std::to_string(n) + ".";
        const auto node = static_cast<std::int32_t>(n);
        // Per-chip levels at each window boundary (where is traffic
        // queued *now*), read from the chip's census.
        for (const char *level :
             { "occupancy_flits", "credits", "pkt.oldest_age" })
            add(chip_prefix + level, SeriesKind::Instant, SeriesScope::Chip,
                node);
        // Per-link egress flit counts - the heatmap source. Utilization
        // normalizes against the SerDes rate (14/45 flits per cycle).
        for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca) {
            const RouterId r = layout_.channelRouter(ca);
            SeriesInfo &link =
                add(chip_prefix + "ca." + layout_.channelShortName(ca)
                        + ".flits",
                    SeriesKind::Cumulative, SeriesScope::Link, node);
            link.u = static_cast<std::int16_t>(mesh.u(r));
            link.v = static_cast<std::int16_t>(mesh.v(r));
            link.port = layout_.channelShortName(ca);
            link.capacity_per_cycle =
                static_cast<double>(kSerdesTokensPerCycle)
                / static_cast<double>(kSerdesTokensPerFlit);
        }
    }

    // One pass per sample: each chip's one census gives its three levels
    // and its share of the machine's oldest packet, read together with
    // its adapters' flit counts and its endpoints' injections.
    auto row = [this](Cycle now, double *out) {
        auto age = [now](Cycle birth) {
            return birth == kNoCycle ? 0.0
                                     : static_cast<double>(now - birth);
        };
        std::uint64_t injected = 0;
        Cycle oldest = kNoCycle;
        double *chip_out = out + 3; // past the three machine values
        for (const auto &cp : chips_) {
            const Chip::FlitCensus c = cp->flitCensus();
            oldest = std::min(oldest, c.oldest_birth);
            *chip_out++ = static_cast<double>(c.buffered);
            *chip_out++ = static_cast<double>(c.free_credits);
            *chip_out++ = age(c.oldest_birth);
            for (int ca = 0; ca < layout_.numChannelAdapters(); ++ca)
                *chip_out++ =
                  static_cast<double>(cp->channelAdapter(ca).flitsSent());
            for (EndpointId e = 0; e < layout_.numEndpoints(); ++e)
                injected += cp->endpoint(e).injected();
        }
        out[0] = static_cast<double>(injected);
        out[1] = static_cast<double>(delivered_);
        out[2] = age(oldest);
    };

    sampler_ = std::make_unique<IntervalSampler>(
        cfg, std::move(series), std::move(row), &latency_, engine_.now());
    IntervalSampler &s = *sampler_;
    s.watchSteadyState(s.findSeries("machine.delivered"),
                       s.findSeries("machine.latency_mean"), metrics_.get());
    engine_.add(s);
    // The sampler observes at attach + n*window; those cycles must be
    // window-final so the instant values and the warmup reset see
    // exactly the state a serial per-cycle run would (lookahead windows
    // truncate to land the barrier there). A 1-cycle window thus runs
    // a barrier every cycle.
    engine_.addBarrierAlignment(cfg.window, engine_.now());
}

std::string
Machine::timeseriesJson()
{
    assert(sampler_ != nullptr && "attach a timeseries sampler first");
    sampler_->finalize(engine_.now());
    return sampler_->toJson();
}

std::string
Machine::heatmapCsv()
{
    assert(sampler_ != nullptr && "attach a timeseries sampler first");
    sampler_->finalize(engine_.now());
    return sampler_->heatmapCsv();
}

std::string
Machine::hostTimelineChromeJson()
{
    assert(host_profile_ != nullptr && "attach the host profiler first");
    const EngineProfiler &prof = *host_profile_;

    HostTimelineInput in;
    in.windows = prof.windows();
    in.detail_windows = prof.detailWindows();
    in.detail_dropped = prof.detailDropped();
    in.profiled_seconds = prof.profiledSeconds();

    const std::size_t lanes = prof.lanes();
    const int serial_tid = static_cast<int>(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        in.threads.emplace_back(
            static_cast<int>(l),
            "lane " + std::to_string(l) + (l == 0 ? " (main)" : ""));
    }
    in.threads.emplace_back(serial_tid, "serial replay");

    const double epoch = static_cast<double>(prof.epochNs());
    auto us = [epoch](std::int64_t ns) {
        return (static_cast<double>(ns) - epoch) / 1000.0;
    };
    for (std::size_t w = 0; w < prof.detailWindows(); ++w) {
        const auto &d = prof.detail(w);
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto [begin_ns, end_ns] = prof.laneSlice(l, w);
            if (end_ns <= begin_ns)
                continue; // lane sat this window out
            in.slices.push_back({ static_cast<int>(l), "tick",
                                  us(begin_ns),
                                  static_cast<double>(end_ns - begin_ns)
                                      / 1000.0,
                                  d.start, d.len });
        }
        if (d.end_ns > d.barrier_ns) {
            in.slices.push_back({ serial_tid, "serial replay",
                                  us(d.barrier_ns),
                                  static_cast<double>(d.end_ns
                                                      - d.barrier_ns)
                                      / 1000.0,
                                  d.start, d.len });
        }
    }
    return hostTimelineJson(in);
}

void
Machine::doEnableEvents(const std::optional<TraceConfig> &trace,
                        const std::optional<FlowProbeConfig> &flows)
{
    if (trace.has_value()) {
        trace_ = std::make_unique<RingTraceSink>(trace->capacity);
        trace_->setSampleStride(trace->sample);
        events_.setTrace(trace_.get());
        // Stall attribution classifies every router output port from
        // this cycle on (a sleeping router books its slept cycles as
        // no_input when it settles), so whatever a router slept through
        // before the attach is settled first and never sampled.
        settleIdle();
    }
    if (flows.has_value()) {
        flow_ = std::make_unique<FlowProbe>(*flows);
        events_.setFlows(flow_.get());
    }
    for (auto &c : chips_)
        c->bindEvents(events_);
}

std::string
Machine::flowMatrixCsv()
{
    assert(flow_ != nullptr && "attach a flow probe first");
    return flow_->matrixCsv();
}

std::string
Machine::traceChromeJson()
{
    assert(trace_ != nullptr && "attach tracing first");

    ChromeTraceInput in;
    in.events = trace_->drain();
    in.recorded = trace_->recorded();
    in.dropped = trace_->dropped();
    in.sample_stride = trace_->sampleStride();
    in.end_cycle = engine_.now();

    // One stall report per router output port that saw any cycles,
    // with the idle cycles of sleeping routers booked first.
    settleIdle();
    for (NodeId n = 0; n < geom_.numNodes(); ++n) {
        for (RouterId r = 0; r < layout_.numRouters(); ++r) {
            const RouterStallSampler *s = chip(n).router(r).stallSampler();
            if (s == nullptr)
                continue;
            for (std::size_t p = 0; p < s->ports.size(); ++p) {
                if (s->ports[p].total() == 0)
                    continue;
                in.stalls.push_back({ static_cast<std::int32_t>(n),
                                      static_cast<std::int16_t>(r),
                                      static_cast<std::int16_t>(p),
                                      s->ports[p] });
            }
        }
    }

    // Windowed time-series curves as Perfetto counter tracks: machine
    // and chip levels as recorded, links as utilization in [0, 1].
    if (sampler_ != nullptr) {
        sampler_->finalize(engine_.now());
        const IntervalSampler &s = *sampler_;
        for (std::size_t i = 0; i < s.numSeries(); ++i) {
            const SeriesInfo &info = s.seriesInfo(i);
            CounterTrack track;
            track.node = info.scope == SeriesScope::Machine ? -1
                                                            : info.chip;
            track.name = info.scope == SeriesScope::Link
                             ? "ca." + info.port + ".util"
                             : info.name;
            track.points.reserve(s.numWindows());
            for (std::size_t w = 0; w < s.numWindows(); ++w) {
                double v = s.value(i, w);
                if (info.scope == SeriesScope::Link) {
                    const auto len = static_cast<double>(
                        s.windowEnd(w) - s.windowStart(w));
                    const double cap = len * info.capacity_per_cycle;
                    v = cap > 0.0 ? v / cap : 0.0;
                }
                track.points.push_back({ s.windowEnd(w), v });
            }
            in.counters.push_back(std::move(track));
        }
    }

    // Sampled flow packets (a flow probe with a sample stride): each
    // becomes its own track of per-hop duration slices in a synthetic
    // "flows" process, named by the unit the packet occupied.
    if (flow_ != nullptr) {
        const auto &spans = flow_->sampledSpans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const FlowProbe::Span &sp = spans[i];
            const FlowDeliveryRecord &m = sp.meta;
            const int tid = static_cast<int>(i);
            in.flow_threads.emplace_back(
                tid, "pkt " + std::to_string(m.packet) + " n"
                         + std::to_string(m.src_node) + "."
                         + std::to_string(m.src_ep) + " -> n"
                         + std::to_string(m.dst_node) + "."
                         + std::to_string(m.dst_ep)
                         + (m.tc == 0 ? " req" : " rep"));
            for (const PacketEvent &hop : sp.path) {
                FlowSpanSlice fs;
                fs.tid = tid;
                fs.name =
                    std::string(flowUnitKindName(hop.kind)) + " n"
                    + std::to_string(hop.node) + "."
                    + flow_->unitName(hop.node, hop.kind, hop.unit);
                fs.begin = hop.arrival;
                fs.end = hop.cycle;
                fs.packet = hop.packet;
                fs.queue =
                    hop.grant > hop.arrival ? hop.grant - hop.arrival : 0;
                fs.xfer = hop.cycle > hop.grant ? hop.cycle - hop.grant
                                                : 0;
                in.flow_spans.push_back(std::move(fs));
            }
        }
    }

    const ChipLayout &layout = layout_;
    in.track_name = [&layout](TraceUnitKind kind, std::int32_t,
                              std::int16_t unit, std::int16_t port) {
        switch (kind) {
          case TraceUnitKind::Router: {
              const MeshGeom &mesh = layout.mesh();
              std::string name = "R(" + std::to_string(mesh.u(unit)) + ","
                                 + std::to_string(mesh.v(unit)) + ")";
              if (port >= 0)
                  name += ":out" + std::to_string(port);
              return name;
          }
          case TraceUnitKind::ChannelAdapter:
            return "CA " + layout.channelShortName(unit);
          case TraceUnitKind::Endpoint:
            return "E" + std::to_string(unit);
          case TraceUnitKind::Link:
            return "L" + std::to_string(unit);
        }
        return std::string("unit ") + std::to_string(unit);
    };

    return chromeTraceJson(in);
}

std::string
Machine::traceFlightCsv()
{
    assert(trace_ != nullptr && "attach tracing first");
    return flightRecordCsv(trace_->drain());
}

void
Machine::setRoute(Packet &pkt, const PacketRoute &route)
{
    if (const char *why =
            malformedRoute(geom_, pkt.src.node, pkt.dst.node, route))
        throw std::invalid_argument(std::string("setRoute: ") + why);
    pkt.route = route;
    pkt.vc = VcState(cfg_.chip.vc_policy);
    chip(pkt.src.node).setExit(pkt, pkt.route.nextDim());
}

void
Machine::checkPacket(const char *who, EndpointAddr src, EndpointAddr dst,
                     std::uint8_t pattern, int size_flits) const
{
    auto reject = [who](const std::string &why) {
        throw std::invalid_argument(std::string(who) + ": " + why);
    };
    for (const EndpointAddr &a : { src, dst }) {
        if (a.node >= geom_.numNodes() || a.ep < 0
            || a.ep >= layout_.numEndpoints())
            reject("endpoint " + std::to_string(a.ep) + " of node "
                   + std::to_string(a.node) + " is outside the machine");
    }
    if (pattern >= kNumPatterns)
        reject("traffic pattern " + std::to_string(pattern)
               + " is not below " + std::to_string(kNumPatterns));
    if (size_flits < 1 || size_flits > kMaxPacketFlits)
        reject("packet size " + std::to_string(size_flits)
               + " is outside [1, " + std::to_string(kMaxPacketFlits)
               + "] flits");
}

Packet *
Machine::newPacket(EndpointAddr src, std::uint8_t pattern, int size_flits,
                   std::int32_t counter)
{
    Packet *pkt = chip(src.node).slab().alloc();
    pkt->id = next_packet_id_++;
    pkt->src = src;
    pkt->pattern = pattern;
    pkt->size_flits = static_cast<std::uint16_t>(size_flits);
    pkt->counter = counter;
    pkt->birth = engine_.now();
    pkt->vc = VcState(cfg_.chip.vc_policy);
    return pkt;
}

PacketPtr
Machine::makeWrite(EndpointAddr src, EndpointAddr dst, std::uint8_t pattern,
                   int size_flits, std::int32_t counter)
{
    checkPacket("makeWrite", src, dst, pattern, size_flits);
    Packet *pkt = newPacket(src, pattern, size_flits, counter);
    pkt->dst = dst;
    randomRoute(geom_, src.node, dst.node, rng_, pkt->route);
    chip(src.node).setExit(*pkt, pkt->route.nextDim());
    return pkt;
}

PacketPtr
Machine::makeRead(EndpointAddr src, EndpointAddr dst, std::uint8_t pattern)
{
    auto pkt = makeWrite(src, dst, pattern, 1);
    pkt->op = OpKind::ReadRequest;
    return pkt;
}

void
Machine::send(const PacketPtr &pkt)
{
    endpoint(pkt->src).inject(pkt);
}

void
Machine::validateTree(const McastTree &tree) const
{
    auto reject = [](const std::string &why) {
        throw std::invalid_argument("installTree: " + why);
    };
    if (tree.slice >= kNumSlices)
        reject("slice " + std::to_string(tree.slice) + " is not below "
               + std::to_string(kNumSlices));
    const NodeId nodes = geom_.numNodes();
    for (const auto &[node, entry] : tree.nodes) {
        if (node >= nodes)
            reject("node " + std::to_string(node) + " is outside the "
                   + std::to_string(nodes) + "-node machine");
        for (const McastHop &hop : entry.forward) {
            if (hop.dim >= 3 || (hop.dir != Dir::Pos && hop.dir != Dir::Neg))
                reject("node " + std::to_string(node)
                       + " forwards along a hop that is not one of the "
                         "six torus directions");
        }
        for (int ep : entry.local) {
            if (ep < 0 || ep >= layout_.numEndpoints())
                reject("node " + std::to_string(node) + " delivers to "
                       "endpoint " + std::to_string(ep) + ", outside [0, "
                       + std::to_string(layout_.numEndpoints()) + ")");
        }
    }
    // Follow the forward hops from the root: every hop must land on a
    // node with an entry, no node may be reached twice (duplicate
    // deliveries, or copies circling forever), and every entry must be
    // reached.
    if (tree.nodes.empty())
        return;
    if (tree.nodes.count(tree.root) == 0)
        reject("the root node " + std::to_string(tree.root)
               + " has no entry");
    std::vector<char> seen(nodes, 0);
    std::vector<NodeId> todo{ tree.root };
    seen[tree.root] = 1;
    std::size_t reached = 1;
    while (!todo.empty()) {
        const NodeId node = todo.back();
        todo.pop_back();
        for (const McastHop &hop : tree.nodes.at(node).forward) {
            const NodeId next = geom_.neighbor(node, hop.dim, hop.dir);
            if (tree.nodes.count(next) == 0)
                reject("node " + std::to_string(node) + " forwards to node "
                       + std::to_string(next) + ", which has no entry");
            if (seen[next])
                reject("node " + std::to_string(next)
                       + " is reached twice");
            seen[next] = 1;
            ++reached;
            todo.push_back(next);
        }
    }
    if (reached != tree.nodes.size())
        reject(std::to_string(tree.nodes.size() - reached)
               + " entries are not reached from the root");
}

std::int32_t
Machine::installTree(const McastTree &tree)
{
    validateTree(tree);
    const std::int32_t group = next_group_++;
    group_slices_.push_back(tree.slice);
    for (const auto &[node, entry] : tree.nodes)
        chip(node).addMcastEntry(group, entry);
    return group;
}

void
Machine::sendMulticast(EndpointAddr src, std::int32_t group,
                       std::uint8_t pattern, int size_flits,
                       std::int32_t counter)
{
    checkPacket("sendMulticast", src, src, pattern, size_flits);
    const McastNodeEntry *entry = chip(src.node).mcastEntry(group);
    if (entry == nullptr)
        throw std::invalid_argument(
            "sendMulticast: group " + std::to_string(group)
            + " has no entry at source node " + std::to_string(src.node));
    ++mcast_sends_;

    // The source node's table entry is expanded at injection: one packet
    // per source branch (the network replicates at later branch points).
    // The multicast slice comes from the tree's installed entries; the
    // route's slice field is what setExit/chip routing consult, and a
    // multicast packet keeps no hops left (its tree routes it).
    const std::uint8_t slice = group_slices_[static_cast<std::size_t>(group)];
    for (const auto &hop : entry->forward) {
        Packet *pkt = newPacket(src, pattern, size_flits, counter);
        pkt->dst = src; // updated at delivery branches
        pkt->mcast_group = group;
        pkt->route.slice = slice;
        pkt->chip_exit = AttachPoint::forChannel(hop.dim, hop.dir, slice);
        send(pkt);
    }
    for (int ep : entry->local) {
        Packet *pkt = newPacket(src, pattern, size_flits, counter);
        pkt->dst = EndpointAddr{ src.node, ep }; // plain local delivery
        pkt->route.slice = slice;
        pkt->chip_exit = AttachPoint::forEndpoint(ep);
        send(pkt);
    }
}

void
Machine::setDeliverHook(std::function<void(const PacketPtr &, Cycle)> fn)
{
    deliver_hook_ = std::move(fn);
}

RunResult
Machine::run(const RunSpec &spec)
{
    const HostClock::Clock::time_point t0 = HostClock::Clock::now();
    if (!host_.ran) {
        host_.first_run = t0;
        host_.ran = true;
    }

    RunResult res;
    const Cycle start = engine_.now();
    const std::uint64_t ticks0 = engine_.ticksRun();

    // The budget is an upper bound (a stop condition usually fires
    // first), so the meter reports the ETA as a bound too.
    if (progress_ != nullptr)
        progress_->setTargetCycles(start + spec.max_cycles);

    Cycle stride = spec.check_every;
    if (stride == 0) {
        stride = engine_.window();
        // busy() walks every component and drain is monotone, so a
        // quiescence wait checks no more often than every 8 cycles.
        if (spec.until_quiescent && stride < 8)
            stride = 8;
    }

    // The first engaged condition to fire ends the run. The delivery
    // target outranks an audit trip observed at the same check (the run
    // did what was asked); an audit trip outranks everything else (the
    // network is wedged and whatever the run waits for never happens).
    StopReason fired = StopReason::MaxCycles;
    auto done = [&] {
        if (spec.until_delivered > 0
            && delivered_ >= spec.until_delivered) {
            fired = StopReason::Delivered;
            return true;
        }
        if (audit_ != nullptr && audit_->tripped()) {
            fired = StopReason::AuditTrip;
            return true;
        }
        if (spec.until_quiescent && !engine_.busy()) {
            fired = StopReason::Quiescent;
            return true;
        }
        if (spec.stop && spec.stop()) {
            fired = StopReason::Predicate;
            return true;
        }
        return false;
    };

    // Warm-start saves happen at a check boundary (the first one after
    // steady-state convergence) so the image lands on a window-final
    // cycle at every lookahead setting.
    auto maybe_save = [&] {
        if (spec.checkpoint_out.empty() || res.checkpoint_saved)
            return;
        if (sampler_ == nullptr || !sampler_->steadyState().converged)
            return;
        saveCheckpoint(spec.checkpoint_out);
        res.checkpoint_saved = true;
        res.checkpoint_cycle = engine_.now();
    };

    engine_.runUntil(
        [&] {
            if (done())
                return true;
            maybe_save();
            return false;
        },
        spec.max_cycles, stride);

    // Fallback: no sampler convergence (or none attached) - write the
    // image at whatever state the run ended in.
    if (!spec.checkpoint_out.empty() && !res.checkpoint_saved) {
        saveCheckpoint(spec.checkpoint_out);
        res.checkpoint_saved = true;
        res.checkpoint_cycle = engine_.now();
    }

    res.cycles = engine_.now() - start;
    res.end_cycle = engine_.now();
    res.delivered = delivered_;
    res.reason = fired;
    res.audit_tripped = audit_ != nullptr && audit_->tripped();

    host_.run_cycles += res.cycles;
    host_.run_ticks += engine_.ticksRun() - ticks0;
    host_.last_run_end = HostClock::Clock::now();
    host_.in_run += host_.last_run_end - t0;
    return res;
}

} // namespace anton2
