/**
 * @file
 * Packet records and their explicit lifetime (noc/packet_slab.hpp):
 *
 *  - a slab hands out records, takes them back and reuses them; its
 *    chunks never move as it grows; releases staged on engine lanes
 *    land in their home slabs at the barrier;
 *  - under AddressSanitizer a released record is poisoned;
 *  - a machine whose network has drained holds no live record, for
 *    every traffic kind and at 1, 2 and 4 threads;
 *  - the torus hops a packet keeps per dimension pick, at every unicast
 *    ingress, the dimension its route order gives from coordinates.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "halo.hpp"
#include "noc/packet_slab.hpp"
#include "sim/thread_pool.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace anton2 {
namespace {

using test::livePackets;

TEST(PacketSlab, AllocateReleaseReuse)
{
    PacketSlab slab;
    EXPECT_EQ(slab.bytes(), 0u) << "no storage before the first record";
    Packet *a = slab.alloc();
    Packet *b = slab.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(a->slab, &slab);
    EXPECT_EQ(slab.live(), 2u);
    EXPECT_GT(slab.bytes(), 0u);

    a->id = 41;
    a->hops = 3;
    slab.release(a);
    EXPECT_EQ(slab.live(), 1u);
    // The released record comes back first, reset to default fields.
    Packet *c = slab.alloc();
    EXPECT_EQ(c, a);
    EXPECT_EQ(c->id, 0u);
    EXPECT_EQ(c->hops, 0);
    EXPECT_EQ(c->mcast_group, -1);

    // A copy is a new record homed here, whatever the source's home.
    PacketSlab other;
    b->id = 7;
    b->payload[1][2] = 0x5a;
    Packet *d = other.copy(*b);
    EXPECT_EQ(d->slab, &other);
    EXPECT_EQ(d->id, 7u);
    EXPECT_EQ(d->payload[1][2], 0x5au);
    other.release(d);
    slab.release(b);
    slab.release(c);
    EXPECT_EQ(slab.live(), 0u);
    EXPECT_EQ(other.live(), 0u);
}

TEST(PacketSlab, ChunksKeepTheirAddressesAsTheSlabGrows)
{
    // Records handed out early keep their address and contents while
    // the slab grows chunk after chunk.
    PacketSlab slab;
    std::vector<Packet *> held;
    std::set<Packet *> distinct;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        Packet *p = slab.alloc();
        p->id = i;
        held.push_back(p);
        distinct.insert(p);
    }
    EXPECT_EQ(distinct.size(), held.size());
    for (std::uint64_t i = 0; i < held.size(); ++i)
        ASSERT_EQ(held[i]->id, i) << "record " << i << " moved";
    const std::size_t bytes = slab.bytes();
    EXPECT_GE(bytes, held.size() * sizeof(Packet));
    // Geometric growth from a small first chunk: less than twice what
    // is live, plus the largest chunk.
    EXPECT_LT(bytes, 2 * held.size() * sizeof(Packet) + 8192 * sizeof(Packet));

    // A reset releases everything and reuses the same chunks.
    slab.reset();
    EXPECT_EQ(slab.live(), 0u);
    Packet *first = slab.alloc();
    EXPECT_EQ(first, held.front());
    EXPECT_EQ(slab.bytes(), bytes);
}

TEST(PacketSlab, StagedCrossShardReleasesLandAtTheBarrier)
{
    PacketSlab home, local;
    LaneBuffer<Packet *> staged;
    staged.configure(2);
    const LaneRelease release{ &local, &staged };
    Packet *mine = local.alloc();
    Packet *theirs = home.alloc();
    Packet *also_theirs = home.alloc();
    {
        // On lane 1: a release of its own record is immediate; records
        // homed elsewhere wait for the barrier.
        par::LaneScope lane(1);
        release(mine);
        release(theirs);
    }
    release(also_theirs); // serial path: lane 0
    EXPECT_EQ(local.live(), 0u);
    EXPECT_EQ(home.live(), 2u) << "staged releases wait for the barrier";

    releaseStaged(staged);
    EXPECT_EQ(home.live(), 0u);
    // Applied in lane order: lane 0's record, then lane 1's, so the
    // free list hands back lane 1's first.
    EXPECT_EQ(home.alloc(), theirs);
    EXPECT_EQ(home.alloc(), also_theirs);

    // Without a buffer (a standalone adapter) every release is direct.
    {
        par::LaneScope lane(1);
        LaneRelease{}(theirs);
    }
    EXPECT_EQ(home.live(), 1u);
    releaseStaged(staged);
    EXPECT_EQ(home.live(), 1u) << "a drained buffer holds nothing";
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PacketSlab, ReleasedRecordsArePoisoned)
{
    PacketSlab slab;
    Packet *live = slab.alloc();
    Packet *gone = slab.alloc();
    slab.release(gone);
    EXPECT_FALSE(__asan_address_is_poisoned(live));
    EXPECT_FALSE(__asan_address_is_poisoned(&live->payload[1]));
    EXPECT_TRUE(__asan_address_is_poisoned(gone));
    EXPECT_TRUE(__asan_address_is_poisoned(&gone->payload[1]));
    // Reuse unpoisons the record.
    EXPECT_EQ(slab.alloc(), gone);
    EXPECT_FALSE(__asan_address_is_poisoned(gone));
}
#endif

// ---------------------------------------------------------------------
// Explicit lifetime in a machine: nothing is live once traffic drains
// ---------------------------------------------------------------------

MachineConfig
lifetimeConfig(int threads)
{
    MachineConfig cfg;
    cfg.radix = { 3, 3, 3 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 19;
    cfg.threads = threads;
    cfg.lookahead = 0; // windows: lanes stage releases for many cycles
    return cfg;
}

void
drain(Machine &m, const std::string &what)
{
    ASSERT_EQ(m.run(RunSpec::untilQuiescent(2000000)).reason,
              StopReason::Quiescent)
        << what;
    EXPECT_EQ(livePackets(m), 0u) << what << ": a record outlived its packet";
}

TEST(PacketLifetime, OpenLoopUniformDrainsToNothingLive)
{
    for (int threads : { 1, 2, 4 }) {
        Machine m(lifetimeConfig(threads));
        UniformPattern pat(m.geom());
        OpenLoopDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.rate = 0.05;
        dcfg.size_flits = 2;
        dcfg.pattern = &pat;
        OpenLoopDriver driver(m, dcfg);
        m.engine().add(driver);
        m.run(RunSpec::forCycles(1500));
        EXPECT_GT(livePackets(m), 0u) << "threads=" << threads;
        driver.setEnabled(false);
        drain(m, "open loop, threads=" + std::to_string(threads));
        EXPECT_GT(m.totalDelivered(), 100u);
    }
}

TEST(PacketLifetime, BatchDrainsToNothingLive)
{
    for (int threads : { 1, 2, 4 }) {
        Machine m(lifetimeConfig(threads));
        UniformPattern pat(m.geom());
        BatchDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.batch_size = 24;
        dcfg.pattern = &pat;
        BatchDriver driver(m, dcfg);
        m.engine().add(driver);
        ASSERT_EQ(m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                                2000000))
                      .reason,
                  StopReason::Delivered);
        drain(m, "batch, threads=" + std::to_string(threads));
    }
}

TEST(PacketLifetime, ReadRequestsAndRepliesDrainToNothingLive)
{
    for (int threads : { 1, 2, 4 }) {
        Machine m(lifetimeConfig(threads));
        Rng rng(5);
        const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
        int reads = 0;
        for (int i = 0; i < 60; ++i) {
            const EndpointAddr src{ static_cast<NodeId>(rng.below(nodes)),
                                    static_cast<int>(rng.below(2)) };
            const EndpointAddr dst{ static_cast<NodeId>(rng.below(nodes)),
                                    static_cast<int>(rng.below(2)) };
            m.send(m.makeRead(src, dst));
            ++reads;
        }
        drain(m, "reads, threads=" + std::to_string(threads));
        EXPECT_EQ(m.totalDelivered(), 2u * static_cast<unsigned>(reads))
            << "every request and its reply delivered";
    }
}

TEST(PacketLifetime, HaloMulticastDrainsToNothingLive)
{
    for (int threads : { 1, 2, 4 }) {
        Machine m(lifetimeConfig(threads));
        const auto groups = test::installHalo(m, 2);
        std::uint64_t expect = 0;
        for (int step = 0; step < 2; ++step) {
            expect += test::sendHaloStep(m, groups, 2, 2, step + 1);
            drain(m, "halo step " + std::to_string(step)
                         + ", threads=" + std::to_string(threads));
        }
        // Deliveries far outnumber the packets injected: ingress entries
        // retired after copying them at every branch node.
        EXPECT_EQ(m.totalDelivered(), expect);
    }
}

TEST(PacketLifetime, RestoredCheckpointDrainsToNothingLive)
{
    const std::string path =
        std::string(::testing::TempDir()) + "packets_restore.ckpt";
    std::uint64_t expect = 0;
    std::size_t saved_live = 0;
    {
        Machine m(lifetimeConfig(1));
        const auto groups = test::installHalo(m, 2);
        expect = test::sendHaloStep(m, groups, 2, 2, 1);
        for (int i = 0; i < 40; ++i)
            m.send(m.makeWrite({ static_cast<NodeId>(i % 27), 1 },
                               { static_cast<NodeId>((i * 7) % 27), 0 }, 0,
                               1 + i % 2));
        expect += 40;
        m.run(RunSpec::forCycles(120));
        saved_live = livePackets(m);
        m.saveCheckpoint(path);
    }
    ASSERT_GT(saved_live, 0u);
    for (int threads : { 1, 2, 4 }) {
        Machine m(lifetimeConfig(threads));
        m.restoreCheckpoint(path);
        EXPECT_EQ(livePackets(m), saved_live) << "threads=" << threads;
        drain(m, "restored, threads=" + std::to_string(threads));
        EXPECT_EQ(m.totalDelivered(), expect) << "threads=" << threads;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Remaining hops against the coordinate rule
// ---------------------------------------------------------------------

TEST(PacketRoute, EveryIngressPicksNextRouteDim)
{
    // The flow probe keeps every delivered packet's hop spans. A link
    // span is the packet leaving a node over one adapter: its dimension
    // is the one the source (first hop) or the unicast ingress (every
    // later hop) chose from the hops left, and must be the first in
    // route order whose coordinate at that node differs from the
    // destination's. Even radices give direction ties; 2-flit packets
    // take part too.
    for (const std::vector<int> &radix :
         { std::vector<int>{ 4, 4, 4 }, { 5, 3, 4 } }) {
        MachineConfig cfg;
        cfg.radix = radix;
        cfg.chip.endpoints_per_node = 2;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 6;
        cfg.seed = 23;
        Machine m(cfg);
        FlowProbeConfig flows;
        flows.sample = 1; // keep every packet's hop spans
        flows.max_spans = std::size_t{ 1 } << 20;
        Instrumentation inst;
        inst.flows = flows;
        m.attachInstrumentation(inst);
        const TorusGeom &g = m.geom();
        const ChipLayout &layout = m.layout();
        auto nextDim = [&](NodeId here, NodeId dst,
                           const PacketRoute &route) {
            for (int d : route.order) {
                if (g.coord(here, d) != g.coord(dst, d))
                    return d;
            }
            return -1;
        };

        std::uint64_t checked = 0;
        m.setDeliverHook([&](const PacketPtr &p, Cycle) {
            const auto &spans = m.flows()->sampledSpans();
            ASSERT_FALSE(spans.empty());
            ASSERT_EQ(spans.back().meta.packet, p->id);
            const PacketRoute &route = p->route;
            NodeId here = p->src.node;
            int hops = 0;
            for (const PacketEvent &hop : spans.back().path) {
                if (hop.kind != TraceUnitKind::ChannelAdapter)
                    continue;
                int dim, slice;
                Dir dir;
                layout.channelAdapterParams(hop.unit, dim, dir, slice);
                ASSERT_EQ(static_cast<NodeId>(hop.node), here);
                ASSERT_EQ(dim, nextDim(here, p->dst.node, route))
                    << "packet " << p->id << " at node " << here;
                ASSERT_EQ(dir, route.dirs[static_cast<std::size_t>(dim)]);
                ASSERT_EQ(slice, route.slice);
                here = g.neighbor(here, dim, dir);
                ++hops;
                ++checked;
            }
            EXPECT_EQ(here, p->dst.node);
            EXPECT_EQ(nextDim(here, p->dst.node, route), -1);
            EXPECT_EQ(hops, p->hops);
        });

        Rng rng(77);
        const auto nodes = static_cast<std::uint64_t>(g.numNodes());
        std::uint64_t sent = 0;
        for (int i = 0; i < 1500; ++i) {
            const EndpointAddr src{ static_cast<NodeId>(rng.below(nodes)),
                                    static_cast<int>(rng.below(2)) };
            const EndpointAddr dst{ static_cast<NodeId>(rng.below(nodes)),
                                    static_cast<int>(rng.below(2)) };
            m.send(m.makeWrite(src, dst, 0, 1 + static_cast<int>(i % 2)));
            ++sent;
        }
        ASSERT_EQ(m.run(RunSpec::untilDelivered(sent, 2000000)).reason,
                  StopReason::Delivered);
        EXPECT_GT(checked, sent) << "most packets cross several links";
        EXPECT_EQ(livePackets(m), 0u);
    }
}

} // namespace
} // namespace anton2
