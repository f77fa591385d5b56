/**
 * @file
 * Packet records and their lifetime (DESIGN.md, "Packets are records with
 * an explicit lifetime").
 *
 * A PacketSlab holds fixed-size Packet records in chunks with stable
 * addresses, allocated on first use and grown geometrically, plus a free
 * list. Holders keep plain non-owning PacketPtrs. A Machine gives every
 * chip (engine shard) a slab; a packet is released exactly once, after
 * its delivery's side effects or when its multicast ingress entry
 * retires. A lane releases records of its own chip directly and stages
 * the others in its buffer (LaneRelease, sim/lane_staging.hpp) until the
 * serial replay, which applies them in lane order, so record reuse does
 * not depend on the thread count.
 *
 * Under AddressSanitizer released and never-used records are poisoned, so
 * a stale PacketPtr fails like a heap use-after-free.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "noc/packet.hpp"
#include "sim/lane_staging.hpp"

namespace anton2 {

/** A slab of packet records: one per chip in a Machine, or a local one
 * for a standalone component. */
class PacketSlab
{
  public:
    PacketSlab() = default;
    ~PacketSlab();

    PacketSlab(const PacketSlab &) = delete;
    PacketSlab &operator=(const PacketSlab &) = delete;

    /** A record with default fields, homed here. */
    Packet *alloc() { return copy(Packet{}); }

    /** A copy of @p src, homed here. */
    Packet *copy(const Packet &src);

    /** Return @p p, allocated here and live, to the free list. */
    void release(Packet *p);

    /** Release every record at once (a checkpoint restore); pointers to
     * them go stale. The chunks are kept. */
    void reset();

    /** Records allocated and not yet released. */
    std::size_t live() const { return live_; }

    /** Bytes of record storage plus the free list's capacity. */
    std::size_t bytes() const;

  private:
    struct Chunk
    {
        Packet *records = nullptr;
        std::size_t size = 0;
    };

    std::vector<Chunk> chunks_; ///< stable storage, never moved
    std::size_t chunk_ = 0;     ///< chunk fresh records come from
    std::size_t used_ = 0;      ///< records handed out of chunks_[chunk_]
    std::vector<Packet *> free_;
    std::size_t live_ = 0;
};

/**
 * How a channel adapter releases the multicast packets it retires:
 * straight to their slab (the default, for standalone use), or, on a
 * Machine's engine lane, directly when homed on the chip's own slab
 * @p local and otherwise staged in the lane's buffer of @p staged, which
 * the serial replay drains with releaseStaged().
 */
struct LaneRelease
{
    const PacketSlab *local = nullptr;
    LaneBuffer<Packet *> *staged = nullptr;

    void
    operator()(Packet *p) const
    {
        if (staged == nullptr || p->slab == local)
            p->slab->release(p);
        else
            staged->push(par::currentLane(), p);
    }
};

/** Release every record staged in @p staged to its slab, in lane order. */
inline void
releaseStaged(LaneBuffer<Packet *> &staged)
{
    staged.drain([](Packet *p) { p->slab->release(p); });
}

} // namespace anton2
