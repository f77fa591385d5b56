/**
 * @file
 * Packets, flits, and the phit/credit protocol units (Section 2.1).
 *
 * Anton 2 packets are fine-grained: the common case is 16 bytes of payload
 * plus 8 bytes of header (one 24-byte flit, transmitted by a mesh channel
 * in a single cycle), and the maximum is twice that (two flits). The
 * network uses virtual cut-through flow control: arbitration happens once
 * per packet, and buffers/credits are managed in flit units.
 */
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/chip_layout.hpp"
#include "routing/route.hpp"
#include "routing/vc_promotion.hpp"
#include "sim/types.hpp"
#include "topo/torus.hpp"

namespace anton2 {

/** One 192-bit flit payload (the mesh channel width, Section 2.2). */
using FlitPayload = std::array<std::uint64_t, 3>;

/** Bits per flit (192-bit mesh channels at 1.5 GHz = 288 Gb/s). */
inline constexpr int kFlitBits = 192;

/** Bytes per flit (24 B: common-case packet = 16 B payload + 8 B header). */
inline constexpr int kFlitBytes = kFlitBits / 8;

/** Maximum packet size in flits (32 B payload + 16 B header = 48 B). */
inline constexpr int kMaxPacketFlits = 2;

/** The two traffic classes (request/reply) avoiding protocol deadlock. */
enum class TrafficClass : std::uint8_t { Request = 0, Reply = 1 };
inline constexpr int kNumTrafficClasses = 2;

/** Remote-memory operation carried by a packet (Section 2.1). */
enum class OpKind : std::uint8_t
{
    Write,      ///< remote write (the common case)
    ReadRequest,///< remote read request; elicits a ReadReply
    ReadReply,  ///< data returned for a read (travels in the Reply class)
};

/** A global endpoint address: (node, endpoint adapter on that node). */
struct EndpointAddr
{
    NodeId node = 0;
    EndpointId ep = 0;

    bool
    operator==(const EndpointAddr &o) const
    {
        return node == o.node && ep == o.ep;
    }
};

class PacketSlab;

/**
 * A network packet: a fixed-size, trivially copyable record that lives in
 * a PacketSlab (noc/packet_slab.hpp), which also states its lifetime.
 * Fields the router stages read come first; the payload comes last.
 */
struct Packet
{
    // --- read by every router stage (RC, VA, SA1/SA2, ST) -------------
    AttachPoint chip_exit;            ///< exit point on the current chip
    bool x_through = false;           ///< current chip traversal uses skip
    TrafficClass tc = TrafficClass::Request;
    std::uint8_t pattern = 0; ///< traffic-pattern id for inverse weighting
    std::uint16_t size_flits = 1;
    VcState vc{ VcPolicy::Anton2 };   ///< promotion state, updated en route
    Cycle birth = 0;       ///< creation time; packet ages count from it
    std::uint64_t id = 0;
    /** Multicast group id at each hop's node table, or -1 for unicast. */
    std::int32_t mcast_group = -1;

    // --- routing at node boundaries, and the endpoints -----------------
    PacketRoute route;
    EndpointAddr src;
    EndpointAddr dst;
    OpKind op = OpKind::Write;
    /** Counted-write synchronization: counter id at the destination. */
    std::int32_t counter = -1;
    int hops = 0; ///< inter-node hops taken (for latency-vs-hops plots)

    // --- timestamps (free-running cycle counters, Section 4) -----------
    Cycle inject_time = 0; ///< first flit entered the network
    Cycle eject_time = 0;  ///< last flit delivered

    /** The slab holding this record (its home; not simulation state). */
    PacketSlab *slab = nullptr;

    std::array<FlitPayload, kMaxPacketFlits> payload{}; ///< size_flits used
};

static_assert(std::is_trivially_copyable_v<Packet>);

/**
 * A non-owning reference to a packet record. Whoever holds one holds it
 * only while the packet is live (see PacketSlab for when it is released);
 * a deliver hook's argument is valid for the call only.
 */
using PacketPtr = Packet *;

/**
 * One phit on a channel wire: a single flit plus control. Every phit
 * carries the packet pointer; the flit's 192 payload bits are
 * `pkt->payload[index]`, so a phit does not copy them.
 */
struct Phit
{
    PacketPtr pkt = nullptr; ///< set on every phit (simulation convenience)
    std::uint8_t vc = 0;     ///< VC this flit occupies on the channel
    std::uint16_t index = 0; ///< flit index within the packet
    bool head = false;
    bool tail = false;

    /** The flit's payload bits. */
    const FlitPayload &payload() const { return pkt->payload[index]; }
};

/** A flow-control credit: one freed flit slot in the given VC. */
struct Credit
{
    std::uint8_t vc = 0;
};

/**
 * Full VC index on routers and channel adapters: traffic class x promotion
 * VC. Routers and channel adapters implement 8 VCs (2 classes x 4, Section
 * 4.4).
 */
constexpr int
fullVcIndex(TrafficClass tc, int promotion_vc, int vcs_per_class)
{
    return static_cast<int>(tc) * vcs_per_class + promotion_vc;
}

} // namespace anton2
