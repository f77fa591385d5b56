/**
 * @file
 * Tests for the link layer: CRC, framing, and go-back-N retransmission
 * under bit-error injection (Section 2.2), and the sender's retransmit
 * records in the packet-event stream.
 */
#include <gtest/gtest.h>

#include "link/link_layer.hpp"
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "tiny_json.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace anton2 {
namespace {

using testjson::TinyJsonParser;

TEST(Crc32, KnownVector)
{
    // CRC-32 of "123456789" is 0xCBF43926.
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xcbf43926u);
}

TEST(Crc32, DetectsSingleBitFlips)
{
    FlitPayload data{ 0x0123456789abcdefull, 0xfedcba9876543210ull,
                      0xdeadbeefcafef00dull };
    const std::uint32_t good = frameCrc(7, data);
    for (int w = 0; w < 3; ++w) {
        for (int b = 0; b < 64; b += 7) {
            FlitPayload bad = data;
            bad[static_cast<std::size_t>(w)] ^= 1ULL << b;
            EXPECT_NE(frameCrc(7, bad), good);
        }
    }
    // Different sequence numbers also change the CRC.
    EXPECT_NE(frameCrc(8, data), good);
}

struct LinkFixture
{
    explicit LinkFixture(double error_prob, std::uint64_t seed = 5,
                         LinkConfig cfg = {})
        : fwd(4, error_prob, seed),
          ack(4, 0.0, seed + 1),
          sender(cfg, fwd, ack),
          receiver(cfg, fwd, ack,
                   [this](const FlitPayload &f, Cycle) {
                       received.push_back(f);
                   })
    {
        engine.add(sender);
        engine.add(receiver);
    }

    Engine engine;
    LossyFrameChannel fwd;
    LossyFrameChannel ack;
    LinkSender sender;
    LinkReceiver receiver;
    std::vector<FlitPayload> received;
};

TEST(LinkLayer, LosslessDeliveryInOrder)
{
    LinkFixture link(0.0);
    for (std::uint64_t i = 0; i < 50; ++i)
        link.sender.offer(FlitPayload{ i, i * 3, ~i });
    link.engine.run(3000);
    ASSERT_EQ(link.received.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(link.received[i][0], i);
    EXPECT_EQ(link.sender.retransmissions(), 0u);
    EXPECT_FALSE(link.sender.busy());
}

TEST(LinkLayer, LosslessThroughputMatchesSerdesRate)
{
    LinkFixture link(0.0);
    for (std::uint64_t i = 0; i < 280; ++i)
        link.sender.offer(FlitPayload{ i, 0, 0 });
    // 14/45 flits per cycle -> 280 flits need ~900 cycles plus latency.
    link.engine.run(1000);
    EXPECT_GE(link.received.size(), 270u);
}

/** Parameterized over channel bit-flip probability per frame bit. */
class LossyLinkSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LossyLinkSweep, ExactlyOnceInOrderDelivery)
{
    const double p = GetParam();
    LinkFixture link(p, 17);
    constexpr std::uint64_t kFlits = 120;
    for (std::uint64_t i = 0; i < kFlits; ++i)
        link.sender.offer(FlitPayload{ i, i ^ 0xabcdu, i << 8 });

    // Generous budget: heavy error rates need many retransmissions.
    link.engine.runUntil([&] { return link.received.size() >= kFlits; },
                         400000);

    ASSERT_EQ(link.received.size(), kFlits);
    for (std::uint64_t i = 0; i < kFlits; ++i) {
        EXPECT_EQ(link.received[i][0], i) << "out of order at " << i;
        EXPECT_EQ(link.received[i][1], i ^ 0xabcdu) << "corrupted data";
    }
    // At p = 1e-5 the expected corruption count over this stream is < 1,
    // so only assert error activity at rates where it is certain.
    if (p >= 1e-4) {
        EXPECT_GT(link.sender.retransmissions()
                      + link.receiver.crcDrops(),
                  0u);
    }
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, LossyLinkSweep,
                         ::testing::Values(0.0, 1e-5, 1e-4, 5e-4, 2e-3),
                         [](const auto &info) {
                             return "p" + std::to_string(static_cast<int>(
                                        info.param * 1e6));
                         });

TEST(LinkLayer, ThroughputDegradesGracefullyWithErrors)
{
    // Compare delivery progress within a window just large enough for the
    // clean link to finish (200 flits at 14/45 flits/cycle ~ 645 cycles).
    auto run = [](double p) {
        LinkFixture link(p, 23);
        for (std::uint64_t i = 0; i < 200; ++i)
            link.sender.offer(FlitPayload{ i, 0, 0 });
        link.engine.run(700);
        return link.received.size();
    };
    const auto clean = run(0.0);
    const auto noisy = run(2e-3);
    EXPECT_GT(clean, noisy);
    EXPECT_GT(noisy, 0u);
}

TEST(LinkLayer, ZeroBerMetricsBalanceExactly)
{
    // Regression: on a clean link the counts must balance to the flit -
    // no retransmissions, no drops, every transmitted frame delivered.
    LinkFixture link(0.0);

    constexpr std::uint64_t kFlits = 96;
    for (std::uint64_t i = 0; i < kFlits; ++i)
        link.sender.offer(FlitPayload{ i, i * 5, ~i });
    link.engine.runUntil(
        [&] { return link.received.size() >= kFlits && !link.sender.busy(); },
        20000);

    ASSERT_EQ(link.received.size(), kFlits);
    EXPECT_EQ(link.sender.framesTransmitted(), kFlits);
    EXPECT_EQ(link.sender.retransmissions(), 0u);
    EXPECT_EQ(link.receiver.delivered(), kFlits);
    EXPECT_EQ(link.receiver.crcDrops(), 0u);
    EXPECT_EQ(link.receiver.orderDrops(), 0u);
    // Every cumulative ack the receiver sent either arrived or is still
    // in flight; at quiescence the sender has seen at least one.
    EXPECT_GE(link.receiver.acksSent(), link.sender.acksReceived());
    EXPECT_GT(link.sender.acksReceived(), 0u);
}

TEST(LinkLayer, NonzeroBerDeliversInOrderAndCountsRetransmissions)
{
    // Regression: with bit errors injected, delivery must remain complete
    // and in-order while the components count the recovery work.
    LinkFixture link(1e-3, 41);

    constexpr std::uint64_t kFlits = 120;
    for (std::uint64_t i = 0; i < kFlits; ++i)
        link.sender.offer(FlitPayload{ i, i ^ 0x5555u, i << 4 });
    link.engine.runUntil([&] { return link.received.size() >= kFlits; },
                         400000);

    ASSERT_EQ(link.received.size(), kFlits);
    for (std::uint64_t i = 0; i < kFlits; ++i)
        EXPECT_EQ(link.received[i][0], i) << "out of order at " << i;

    EXPECT_GT(link.sender.retransmissions(), 0u);
    // frames_tx counts resends too, so it exceeds unique deliveries.
    EXPECT_GT(link.sender.framesTransmitted(), kFlits);
    EXPECT_EQ(link.receiver.delivered(), kFlits);
    // Dropped frames (CRC or out-of-order) are what forced the resends.
    EXPECT_GT(link.receiver.crcDrops() + link.receiver.orderDrops(), 0u);
}

TEST(LinkLayer, RecoversFromBurstLoss)
{
    // Very high error rate for a while, then clean: the window must
    // eventually go-back and deliver everything.
    LinkConfig cfg;
    cfg.retry_timeout = 32;
    LinkFixture link(5e-3, 29, cfg);
    for (std::uint64_t i = 0; i < 64; ++i)
        link.sender.offer(FlitPayload{ i, 0, 0 });
    link.engine.runUntil([&] { return link.received.size() >= 64; },
                         300000);
    EXPECT_EQ(link.received.size(), 64u);
    EXPECT_GT(link.sender.retransmissions(), 0u);
}

TEST(LinkLayer, RewindEmitsOnePacketlessRetransmitRecord)
{
    // A lossy link bound to a packet-event stream with both readers
    // attached: each go-back-N rewind is one `retransmit` record (packet
    // 0, `port` = frames rewound) on the sender's link track, and the
    // flow probe, which reads packet hops, sees none of them.
    LinkFixture link(1e-3, 41);
    RingTraceSink ring(1024);
    FlowProbe probe(FlowProbeConfig{});
    PacketEventStream events;
    events.setTrace(&ring);
    events.setFlows(&probe);
    link.sender.bindEvents(events, /*node=*/2, /*unit=*/3);

    constexpr std::uint64_t kFlits = 120;
    for (std::uint64_t i = 0; i < kFlits; ++i)
        link.sender.offer(FlitPayload{ i, i ^ 0x5555u, i << 4 });
    // One cycle at a time, so each rewind is seen at its cycle (a tick
    // rewinds at most once).
    struct Rewind
    {
        Cycle cycle;
        std::uint64_t frames;
    };
    std::vector<Rewind> rewinds;
    while (link.received.size() < kFlits && link.engine.now() < 400000) {
        const Cycle now = link.engine.now();
        const std::uint64_t before = link.sender.retransmissions();
        link.engine.run(1);
        if (link.sender.retransmissions() != before)
            rewinds.push_back(
                { now, link.sender.retransmissions() - before });
    }
    ASSERT_EQ(link.received.size(), kFlits);
    ASSERT_FALSE(rewinds.empty());

    const std::vector<TraceEvent> recs = ring.drain();
    EXPECT_EQ(ring.dropped(), 0u);
    ASSERT_EQ(recs.size(), rewinds.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(recs[i].type, TraceEventType::Retransmit);
        EXPECT_EQ(recs[i].unit_kind, TraceUnitKind::Link);
        EXPECT_EQ(recs[i].node, 2);
        EXPECT_EQ(recs[i].unit, 3);
        EXPECT_EQ(recs[i].packet, 0u);
        EXPECT_EQ(recs[i].cycle, rewinds[i].cycle);
        EXPECT_EQ(static_cast<std::uint64_t>(recs[i].port),
                  rewinds[i].frames);
    }
    EXPECT_TRUE(probe.sampledSpans().empty());
    EXPECT_TRUE(probe.cells().empty());
    EXPECT_TRUE(probe.blame().empty());

    ChromeTraceInput in;
    in.events = recs;
    in.recorded = ring.recorded();
    in.end_cycle = link.engine.now();
    const auto doc = TinyJsonParser(chromeTraceJson(in)).parse();
    std::size_t tracks = 0;
    std::size_t instants = 0;
    for (const auto &ev : doc->at("traceEvents").array) {
        const std::string ph = ev->at("ph").string;
        if (ph == "M" && ev->at("name").string == "thread_name") {
            ++tracks;
            EXPECT_EQ(ev->at("pid").number, 2.0);
            EXPECT_EQ(ev->at("args").at("name").string, "link 3");
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(ev->at("name").string, "retransmit");
            EXPECT_EQ(ev->at("args").at("packet").number, 0.0);
        }
    }
    EXPECT_EQ(tracks, 1u);
    EXPECT_EQ(instants, recs.size());
}

} // namespace
} // namespace anton2
