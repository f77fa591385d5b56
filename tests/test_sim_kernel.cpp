/**
 * @file
 * Unit tests for the simulation kernel: wires and their doorbells, engine,
 * RNG, statistics.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "sim/wire.hpp"

namespace anton2 {
namespace {

TEST(Wire, DeliversAfterExactLatency)
{
    Wire<int> w(3);
    w.send(10, 42);
    EXPECT_FALSE(w.pending(10));
    EXPECT_FALSE(w.pending(12));
    ASSERT_TRUE(w.pending(13));
    EXPECT_EQ(w.take(13).value(), 42);
    EXPECT_FALSE(w.pending(13));
}

TEST(Wire, TakeConsumesValue)
{
    Wire<int> w(1);
    w.send(0, 7);
    ASSERT_TRUE(w.take(1).has_value());
    EXPECT_FALSE(w.take(1).has_value());
}

TEST(Wire, BackToBackValuesDoNotCollide)
{
    Wire<int> w(2);
    for (Cycle t = 0; t < 100; ++t) {
        w.send(t, static_cast<int>(t));
        if (t >= 2) {
            EXPECT_EQ(w.take(t).value(), static_cast<int>(t - 2));
        }
    }
}

TEST(Wire, BusyReflectsInFlightValues)
{
    Wire<int> w(4);
    EXPECT_FALSE(w.busy());
    w.send(0, 1);
    EXPECT_TRUE(w.busy());
    (void)w.take(4);
    EXPECT_FALSE(w.busy());
}

TEST(Wire, LongLatencyRoundTrip)
{
    Wire<int> w(57);
    w.send(5, 99);
    EXPECT_FALSE(w.pending(61));
    ASSERT_TRUE(w.pending(62));
    EXPECT_EQ(w.take(62).value(), 99);
}

TEST(Wire, RingIsAPowerOfTwoCoveringLatencyAndSlack)
{
    EXPECT_EQ(Wire<int>(1).ringSlots(), 2u);
    EXPECT_EQ(Wire<int>(2).ringSlots(), 4u);
    EXPECT_EQ(Wire<int>(3).ringSlots(), 4u);
    EXPECT_EQ(Wire<int>(20, 20).ringSlots(), 64u);
    EXPECT_EQ(Wire<int>(57).ringSlots(), 64u);
}

TEST(Wire, ZeroLatencyIsRejectedInEveryBuild)
{
    EXPECT_THROW(Wire<int>(0), std::invalid_argument);
}

TEST(Wire, NeverTakenEarlyOrLateAtAnAliasingCycle)
{
    // Ring of 4: cycles 9, 13 and 17 share a slot. A receiver that
    // skipped cycles must see the value at 13 only - neither at 9
    // (early) nor at 17 (late, after missing 13).
    Wire<int> w(3);
    ASSERT_EQ(w.ringSlots(), 4u);
    w.send(10, 5);
    EXPECT_FALSE(w.pending(9));
    EXPECT_FALSE(w.take(9).has_value());
    EXPECT_FALSE(w.take(17).has_value());
    EXPECT_EQ(w.take(13).value(), 5);

    // Missed delivery: the value stays unreadable at every later
    // aliasing cycle.
    w.send(20, 6); // deliverable at 23 only
    for (Cycle c = 24; c < 24 + 4 * w.ringSlots(); ++c)
        EXPECT_FALSE(w.take(c).has_value()) << "cycle " << c;
    EXPECT_TRUE(w.busy());
}

TEST(Doorbell, BitLandsOnExactlyTheDeliveryCycle)
{
    for (Cycle latency = 1; latency <= kMaxDoorbellLatency; ++latency) {
        for (Cycle t = 0; t < 2 * kDoorbellSlots; ++t) {
            Wire<int> w(latency);
            Doorbell bell;
            w.attachDoorbell(bell, 5);
            // A receiver ticking every cycle from the send onwards (the
            // same-shard schedule) reads each cycle's mask once.
            w.send(t, 7);
            for (Cycle c = t; c <= t + 2 * kDoorbellSlots; ++c) {
                const std::uint32_t rung = bell.take(c);
                if (c == t + latency) {
                    EXPECT_EQ(rung, 1u << 5)
                        << "latency " << latency << " sent " << t;
                    EXPECT_EQ(w.take(c).value(), 7);
                } else {
                    EXPECT_EQ(rung, 0u) << "latency " << latency
                                        << " sent " << t << " cycle " << c;
                }
            }
        }
    }
}

TEST(Doorbell, LatencyBeyondTheRingIsRejected)
{
    Doorbell bell;
    Wire<int> ok(kMaxDoorbellLatency);
    EXPECT_NO_THROW(ok.attachDoorbell(bell, 0));
    Wire<int> too_slow(kMaxDoorbellLatency + 1);
    EXPECT_THROW(too_slow.attachDoorbell(bell, 1), std::invalid_argument);
}

TEST(Doorbell, RestoreSlotRingsAgain)
{
    Wire<int> w(2);
    Doorbell bell;
    w.attachDoorbell(bell, 3);
    w.send(40, 9); // deliverable at 42
    w.clearAll();
    EXPECT_EQ(bell.take(42), 0u);
    EXPECT_FALSE(w.busy());

    w.restoreSlot(42, 9);
    EXPECT_EQ(bell.take(41), 0u);
    EXPECT_EQ(bell.take(42), 1u << 3);
    EXPECT_EQ(w.take(42).value(), 9);
}

TEST(Doorbell, ClearAllClearsOnlyItsOwnBit)
{
    Wire<int> a(1), b(1), c(2);
    Doorbell bell;
    a.attachDoorbell(bell, 0);
    b.attachDoorbell(bell, 4);
    c.attachDoorbell(bell, 9);
    a.send(10, 1); // at 11
    b.send(10, 2); // at 11
    c.send(10, 3); // at 12
    a.clearAll();
    EXPECT_EQ(bell.take(11), 1u << 4);
    EXPECT_FALSE(a.take(11).has_value());
    EXPECT_EQ(b.take(11).value(), 2);
    EXPECT_EQ(bell.take(12), 1u << 9);
    EXPECT_EQ(c.take(12).value(), 3);
}

/** A component that counts its ticks and relays values between two wires. */
class Relay : public Component
{
  public:
    Relay(Wire<int> &in, Wire<int> &out) : in_(in), out_(out) {}

    void
    tick(Cycle now) override
    {
        ++ticks;
        if (auto v = in_.take(now))
            out_.send(now, *v + 1);
    }

    bool busy() const override { return false; }

    int ticks = 0;

  private:
    Wire<int> &in_;
    Wire<int> &out_;
};

TEST(Engine, TicksAllComponentsOncePerCycle)
{
    Engine eng;
    Wire<int> a(1), b(1), c(1);
    Relay r1(a, b), r2(b, c);
    eng.add(r1);
    eng.add(r2);
    eng.run(10);
    EXPECT_EQ(eng.now(), 10u);
    EXPECT_EQ(r1.ticks, 10);
    EXPECT_EQ(r2.ticks, 10);
}

TEST(Engine, ValuesPropagateThroughRelayChain)
{
    Engine eng;
    Wire<int> a(1), b(1), c(1);
    Relay r1(a, b), r2(b, c);
    eng.add(r1);
    eng.add(r2);
    a.send(0, 100);
    eng.run(3);
    // sent at 0 -> r1 sees at 1, sends at 1 -> r2 sees at 2, sends at 2
    // -> deliverable on wire c at cycle 3.
    ASSERT_TRUE(c.pending(3));
    EXPECT_EQ(c.take(3).value(), 102);
}

TEST(Engine, RunUntilStopsOnPredicate)
{
    Engine eng;
    Wire<int> a(1), b(1);
    Relay r(a, b);
    eng.add(r);
    const bool fired = eng.runUntil([&] { return r.ticks >= 5; }, 100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(r.ticks, 5);
}

TEST(Engine, RunUntilTimesOut)
{
    Engine eng;
    Wire<int> a(1), b(1);
    Relay r(a, b);
    eng.add(r);
    EXPECT_FALSE(eng.runUntil([] { return false; }, 20));
    EXPECT_EQ(eng.now(), 20u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(11);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.below(kBuckets)];
    for (int c : counts) {
        EXPECT_GT(c, kDraws / kBuckets * 0.9);
        EXPECT_LT(c, kDraws / kBuckets * 1.1);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= (v == -2);
        saw_hi |= (v == 2);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(ScalarStat, BasicMoments)
{
    ScalarStat s;
    for (double x : { 1.0, 2.0, 3.0, 4.0 })
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(ScalarStat, EmptyIsSafe)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinsAndOverflow)
{
    Histogram h(4, 10.0); // bins [0,10) .. [30,40) + overflow
    for (double x : { 1.0, 11.0, 12.0, 35.0, 99.0 })
        h.add(x);
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[1], 2u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.counts()[4], 1u); // overflow bin
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(100, 1.0);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(LinearFit, RecoversExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 1; i <= 10; ++i) {
        xs.push_back(i);
        ys.push_back(80.7 + 39.1 * i);
    }
    const auto f = LinearFit::fit(xs, ys);
    EXPECT_NEAR(f.intercept, 80.7, 1e-9);
    EXPECT_NEAR(f.slope, 39.1, 1e-9);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputsReturnZero)
{
    const auto f = LinearFit::fit({ 1.0 }, { 2.0 });
    EXPECT_EQ(f.slope, 0.0);
    EXPECT_EQ(f.intercept, 0.0);
}

TEST(Types, CycleNsConversionRoundTrip)
{
    EXPECT_DOUBLE_EQ(cyclesToNs(3), 2.0); // 1.5 GHz -> 2/3 ns per cycle
    EXPECT_EQ(nsToCycles(2.0), 3u);
    EXPECT_EQ(nsToCycles(0.1), 1u); // rounds up
    EXPECT_EQ(nsToCycles(0.0), 0u);
}

} // namespace
} // namespace anton2
