/**
 * @file
 * Checkpoint codecs for the shared NoC building blocks: channels (with
 * their in-flight phits/credits), credit counters, and VC buffers.
 * Wires are restored at absolute delivery cycles, keeping ring indices
 * consistent with the restored engine clock, and re-ring their
 * receivers' doorbells as they go. A phit's payload bits live in its
 * packet, which the packet table already carries.
 */
#include "debug/checkpoint.hpp"
#include "noc/channel.hpp"

namespace anton2 {

namespace {

void
encodePhit(CkptWriter &w, const Phit &p)
{
    w.packetRef(p.pkt);
    w.u8(p.vc);
    w.u16(p.index);
    w.b(p.head);
    w.b(p.tail);
}

Phit
decodePhit(CkptReader &r)
{
    Phit p;
    p.pkt = r.packetRef();
    p.vc = r.u8();
    p.index = r.u16();
    p.head = r.b();
    p.tail = r.b();
    return p;
}

template <typename T, typename Enc>
void
saveWire(CkptWriter &w, const Wire<T> &wire, Enc &&enc)
{
    std::uint32_t n = 0;
    wire.forEachSlot([&](Cycle, const T &) { ++n; });
    w.u32(static_cast<std::uint32_t>(wire.ringSlots()));
    w.u32(n);
    wire.forEachSlot([&](Cycle at, const T &v) {
        w.cycle(at);
        enc(w, v);
    });
}

template <typename T, typename Dec>
void
loadWire(CkptReader &r, Wire<T> &wire, Dec &&dec)
{
    const std::uint32_t ring = r.u32();
    if (ring != wire.ringSlots())
        throw CheckpointError("checkpoint: wire ring size mismatch "
                              "(different lookahead slack at save time)");
    wire.clearAll();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        const Cycle at = r.cycle();
        wire.restoreSlot(at, dec(r));
    }
}

} // namespace

void
Channel::saveState(CkptWriter &w) const
{
    w.tag("channel");
    saveWire(w, data, encodePhit);
    saveWire(w, credit, [](CkptWriter &wr, const Credit &c) {
        wr.u8(c.vc);
    });
}

void
Channel::loadState(CkptReader &r)
{
    r.expect("channel");
    loadWire(r, data, decodePhit);
    loadWire(r, credit, [](CkptReader &rd) {
        Credit c;
        c.vc = rd.u8();
        return c;
    });
}

void
CreditCounter::saveState(CkptWriter &w) const
{
    w.tag("credits");
    w.i32(initial_);
    w.u32(static_cast<std::uint32_t>(credits_.size()));
    for (int c : credits_)
        w.i32(c);
}

void
CreditCounter::loadState(CkptReader &r)
{
    r.expect("credits");
    initial_ = r.i32();
    const std::uint32_t n = r.u32();
    if (n != credits_.size())
        throw CheckpointError("checkpoint: credit counter VC count "
                              "mismatch");
    for (int &c : credits_)
        c = r.i32();
}

void
VcBuffer::saveState(CkptWriter &w) const
{
    w.tag("vcbuf");
    w.i32(capacity_);
    w.i32(occupancy_);
    w.u32(static_cast<std::uint32_t>(entries_.size()));
    for (const Entry &e : entries_) {
        w.packetRef(e.pkt);
        w.u16(e.arrived);
        w.u16(e.sent);
        w.cycle(e.head_at);
        w.b(e.routed);
        w.b(e.va_done);
        w.i32(e.out_port);
        w.u8(e.out_vc);
        w.cycle(e.routed_at);
        w.cycle(e.va_at);
        w.b(e.granted);
        w.cycle(e.granted_at);
    }
}

void
VcBuffer::loadState(CkptReader &r)
{
    r.expect("vcbuf");
    capacity_ = r.i32();
    occupancy_ = r.i32();
    entries_.resize(r.u32());
    for (Entry &e : entries_) {
        e.pkt = r.packetRef();
        e.arrived = r.u16();
        e.sent = r.u16();
        e.head_at = r.cycle();
        e.routed = r.b();
        e.va_done = r.b();
        e.out_port = r.i32();
        e.out_vc = r.u8();
        e.routed_at = r.cycle();
        e.va_at = r.cycle();
        e.granted = r.b();
        e.granted_at = r.cycle();
    }
}

} // namespace anton2
