/**
 * @file
 * Figure 13: router energy per flit versus injection rate, for all-zeros,
 * all-ones, and random payloads (Section 4.5).
 *
 * Reproduces the paper's measurement methodology: a continuous stream of
 * single-flit packets is driven through a 3-hop and a 35-hop router chain
 * with no contention; per-hop energy is the difference of the two
 * measurements divided by 32 hops; per-flit energy divides by the
 * injection rate. The flit stream maximizes the activation rate,
 * a = min(r, 1-r). Finally the Section 4.5 model
 *
 *     E = c0 + c1*h + (c2 + c3*n)(a/r)  pJ
 *
 * is re-fit from the measurements; the paper's coefficients are
 * (42.7, 0.837, 34.4, 0.250). Idle (clock-gate/leakage) power is excluded
 * on both sides (the paper's footnote 1).
 */
#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "noc/packet_slab.hpp"
#include "noc/router.hpp"
#include "power/fit.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

using namespace anton2;

namespace {

enum class Payload { Zeros, Ones, Random };

/** Bresenham pacing with maximized activation rate: a = min(r, 1-r). */
class PacedSource : public Component
{
  public:
    PacedSource(PacketSlab &slab, Channel &out, int rate_num, int rate_den,
                Payload payload, std::uint64_t seed)
        : slab_(slab),
          out_(out),
          num_(rate_num),
          den_(rate_den),
          payload_(payload),
          rng_(seed)
    {
    }

    void
    tick(Cycle now) override
    {
        bool send;
        if (2 * num_ <= den_) {
            // r <= 1/2: isolated valid cycles.
            acc_ += num_;
            send = acc_ >= den_;
            if (send)
                acc_ -= den_;
        } else {
            // r > 1/2: isolated empty cycles.
            acc_ += den_ - num_;
            const bool gap = acc_ >= den_;
            if (gap)
                acc_ -= den_;
            send = !gap;
        }
        if (!send)
            return;

        FlitPayload data{};
        switch (payload_) {
          case Payload::Zeros:
            break;
          case Payload::Ones:
            data = { ~0ull, ~0ull, ~0ull };
            break;
          case Payload::Random:
            data = { rng_.next(), rng_.next(), rng_.next() };
            break;
        }

        Packet *pkt = slab_.alloc();
        pkt->id = ++count_;
        pkt->size_flits = 1;
        pkt->payload[0] = data;
        pkt->chip_exit = AttachPoint::forEndpoint(0); // the chain's sink

        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = true;
        phit.tail = true;
        out_.data.send(now, phit);
        ++flits_;

        // Stream statistics for the model regressors.
        if (have_prev_) {
            int h = 0;
            for (std::size_t w = 0; w < data.size(); ++w)
                h += std::popcount(data[w] ^ prev_[w]);
            hamming_sum_ += h;
        }
        int n = 0;
        for (std::uint64_t w : data)
            n += std::popcount(w);
        setbits_sum_ += n;
        prev_ = data;
        have_prev_ = true;
    }

    std::uint64_t flits() const { return flits_; }
    double
    avgHamming() const
    {
        return flits_ > 1 ? hamming_sum_ / static_cast<double>(flits_ - 1)
                          : 0.0;
    }
    double
    avgSetBits() const
    {
        return flits_ ? setbits_sum_ / static_cast<double>(flits_) : 0.0;
    }

  private:
    PacketSlab &slab_;
    Channel &out_;
    int num_, den_;
    Payload payload_;
    Rng rng_;
    int acc_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t flits_ = 0;
    double hamming_sum_ = 0;
    double setbits_sum_ = 0;
    FlitPayload prev_{};
    bool have_prev_ = false;
};

/** Consumes flits at full rate, returns credits, and releases each
 * packet as its tail arrives. */
class Sink : public Component
{
  public:
    explicit Sink(Channel &in) : in_(in) {}

    void
    tick(Cycle now) override
    {
        if (auto phit = in_.data.take(now)) {
            in_.credit.send(now, Credit{ phit->vc });
            if (phit->tail)
                phit->pkt->slab->release(phit->pkt);
        }
    }

  private:
    Channel &in_;
};

/**
 * A contention-free chain of @p hops routers with energy meters. Each
 * router is one row of a route table that sends the sink's exit slot out
 * of port 1.
 */
struct Chain
{
    Chain(int hops, int rate_num, int rate_den, Payload payload)
        : routes(hops, 1, 0)
    {
        RouterConfig rcfg;
        rcfg.num_ports = 2;
        rcfg.num_vcs = 1;
        rcfg.buf_flits_per_vc = 8;

        channels.push_back(std::make_unique<Channel>(1, 1));
        for (int i = 0; i < hops; ++i) {
            routes.set(i, 0, { 1, VcGroup::Mesh });
            routers.push_back(std::make_unique<Router>(rcfg, routes, i));
            meters.push_back(std::make_unique<RouterEnergyMeter>(2));
            routers.back()->setEnergyMeter(meters.back().get());
            channels.push_back(std::make_unique<Channel>(1, 1));
            routers.back()->connectIn(0, *channels[channels.size() - 2]);
            routers.back()->connectOut(1, *channels.back(), 8);
        }
        source = std::make_unique<PacedSource>(
            slab, *channels.front(), rate_num, rate_den, payload, 77);
        sink = std::make_unique<Sink>(*channels.back());

        engine.add(*source);
        for (auto &r : routers)
            engine.add(*r);
        engine.add(*sink);
    }

    double
    totalPj() const
    {
        double t = 0;
        for (const auto &m : meters)
            t += m->totalPj();
        return t;
    }

    PacketSlab slab;
    Engine engine;
    RouteTable routes;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<RouterEnergyMeter>> meters;
    std::vector<std::unique_ptr<Channel>> channels;
    std::unique_ptr<PacedSource> source;
    std::unique_ptr<Sink> sink;
};

struct Measurement
{
    double energy_per_flit_pj;
    double hamming;
    double set_bits;
    double act_per_flit;
};

Measurement
measure(int rate_num, int rate_den, Payload payload, Cycle cycles)
{
    Chain short_chain(3, rate_num, rate_den, payload);
    Chain long_chain(35, rate_num, rate_den, payload);
    short_chain.engine.run(cycles);
    long_chain.engine.run(cycles);

    // The paper's subtraction: (P35 - P3) / 32 hops, then / injection.
    const double delta = long_chain.totalPj() - short_chain.totalPj();
    const double flits =
        static_cast<double>(long_chain.source->flits());

    Measurement out;
    out.energy_per_flit_pj = delta / 32.0 / flits;
    out.hamming = long_chain.source->avgHamming();
    out.set_bits = long_chain.source->avgSetBits();
    const double r = static_cast<double>(rate_num) / rate_den;
    out.act_per_flit = std::min(r, 1.0 - r) / r;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    long cycles_flag = 20000;
    bench::OptionRegistry reg(
        "Figure 13: router energy per flit vs. injection rate and payload "
        "content");
    // Shorter points end while the 35-router chain is still filling:
    // rows read 0 or NaN below ~30 cycles and stay transient-biased
    // (>10% low) below ~1000.
    reg.add("--cycles", "N", "simulated cycles per measurement point "
                             "(default 20000)",
            &cycles_flag, 1000);
    if (!reg.parse(argc, argv))
        return 1;
    const auto cycles = static_cast<Cycle>(cycles_flag);

    bench::printHeader(
        "Figure 13: router energy per flit vs. injection rate "
        "(a = min(r, 1-r))");
    std::printf("%8s %12s %12s %12s\n", "rate", "zeros (pJ)", "ones (pJ)",
                "random (pJ)");
    bench::printRule(50);

    const std::pair<int, int> rates[] = { { 1, 10 }, { 1, 5 },  { 3, 10 },
                                          { 2, 5 },  { 1, 2 },  { 3, 5 },
                                          { 7, 10 }, { 4, 5 },  { 9, 10 },
                                          { 1, 1 } };

    std::vector<EnergySample> samples;
    for (const auto &[num, den] : rates) {
        double row[3];
        int col = 0;
        for (Payload p : { Payload::Zeros, Payload::Ones,
                           Payload::Random }) {
            const auto mres = measure(num, den, p, cycles);
            row[col++] = mres.energy_per_flit_pj;
            samples.push_back({ mres.energy_per_flit_pj, mres.hamming,
                                mres.set_bits, mres.act_per_flit });
        }
        std::printf("%8.2f %12.1f %12.1f %12.1f\n",
                    static_cast<double>(num) / den, row[0], row[1],
                    row[2]);
    }
    bench::printRule(50);

    const auto fit = fitEnergyModel(samples);
    std::printf("\nRe-fit model: E = %.1f + %.3f h + (%.1f + %.3f n)(a/r) "
                "pJ   (rms %.2f pJ)\n",
                fit.c0, fit.c1, fit.c2, fit.c3, fit.rms_error_pj);
    std::printf("Paper:        E = 42.7 + 0.837 h + (34.4 + 0.250 n)(a/r) "
                "pJ\n");
    return 0;
}
