/**
 * @file
 * Checkpoint field lists of the shared NoC building blocks: channels
 * (with their in-flight phits/credits), credit counters, and VC buffers.
 * A phit's payload bits live in its packet, which the packet table
 * already carries.
 */
#include <new>

#include "debug/checkpoint.hpp"
#include "noc/channel.hpp"

namespace anton2 {

void
Channel::fields(CkptArchive &ar, int vcs)
{
    ar.marker("channel");
    wireFields(ar, data, [&](Phit &p) {
        ar.packet(p.pkt);
        ar.io(p.vc, 0, static_cast<std::uint8_t>(vcs - 1), "phit VC");
        ar.io(p.index);
        ar.io(p.head);
        ar.io(p.tail);
        ar.check(p.index < p.pkt->size_flits && p.head == (p.index == 0)
                     && p.tail == (p.index + 1 == p.pkt->size_flits),
                 "phit index and flags disagree with its packet");
        ar.holds(p.pkt, p.index, p.index + 1u);
    });
    wireFields(ar, credit, [&](Credit &c) {
        ar.io(c.vc, 0, static_cast<std::uint8_t>(vcs - 1), "credit VC");
    });
}

void
CreditCounter::fields(CkptArchive &ar)
{
    ar.marker("credits");
    ar.same(initialPerVc(), "credit depth mismatch");
    ar.same(static_cast<std::uint32_t>(num_vcs_),
            "credit VC count mismatch");
    for (int v = 0; v < num_vcs_; ++v)
        ar.ioAs<int>(credits_[static_cast<std::size_t>(v)], 0,
                     initialPerVc(), "credits outside [0, depth]");
}

void
VcBuffer::grow(std::size_t n)
{
    // Doubling from one entry, like the std::vector it replaces, but at
    // two thirds of its entry size.
    const std::size_t room = std::min<std::size_t>(
        std::max<std::size_t>(n, 2u * room_), 0xffff);
    void *p = std::realloc(static_cast<void *>(entries_),
                           room * sizeof(Entry));
    if (p == nullptr)
        throw std::bad_alloc();
    entries_ = static_cast<Entry *>(p);
    room_ = static_cast<std::uint16_t>(room);
}

void
VcBuffer::fields(CkptArchive &ar, int ports, int vcs, Cycle &head_grant)
{
    ar.marker("vcbuf");
    ar.same(capacity(), "buffer capacity mismatch");
    // Checked against the resident flits by the auditor's buffer_sanity,
    // which restore runs last.
    ar.ioAs<int>(occupancy_, 0, capacity(),
                 "buffer occupancy above capacity");
    // Every entry but a head that has sent all its arrived flits holds
    // at least one flit.
    const std::size_t n =
        ar.count(count_, static_cast<std::size_t>(capacity_) + 1, 40,
                 "buffer entries");
    if (ar.loading()) {
        if (n > room_)
            grow(n);
        count_ = static_cast<std::uint16_t>(n);
        std::fill_n(entries_, n, Entry{});
        head_grant = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        Entry &e = entries_[i];
        ar.packet(e.pkt);
        ar.io(e.arrived);
        ar.io(e.sent);
        ar.io(e.head_at);
        ar.io(e.routed);
        ar.io(e.va_done);
        ar.ioAs<int>(e.out_port, -1, ports - 1, "entry output port");
        ar.io(e.out_vc, 0, static_cast<std::uint8_t>(vcs - 1),
              "entry output VC");
        ar.io(e.routed_at);
        ar.io(e.va_at);
        ar.io(e.granted);
        Cycle granted_at = e.granted ? head_grant : 0;
        ar.io(granted_at);
        ar.check(e.granted || granted_at == 0,
                 "grant cycle on an ungranted entry");
        if (e.granted)
            head_grant = granted_at;
        if (ar.loading()) {
            e.size_flits = e.pkt->size_flits;
            e.pattern = e.pkt->pattern;
        }
        // Flits arrive and leave in order: only the head sends, only the
        // tail entry may still be arriving, and pipeline flags are set in
        // stage order.
        const bool last = i + 1 == n;
        ar.check(e.sent <= e.arrived && e.arrived <= e.size_flits
                     && e.arrived > 0 && (i == 0 || e.sent == 0)
                     && (last || e.arrived == e.size_flits),
                 "entry flit counts out of order");
        ar.check(e.routed == (e.out_port >= 0)
                     && (!e.va_done || e.routed)
                     && (!e.granted || (e.va_done && i == 0)),
                 "entry pipeline flags out of order");
        ar.holds(e.pkt, e.sent, e.arrived);
    }
}

} // namespace anton2
