/**
 * @file
 * Lossless, versioned machine checkpoints.
 *
 * Unlike the forensic snapshot (src/debug/snapshot.*), which flattens
 * state into a human-readable but lossy report, a checkpoint is a
 * restorable binary image: every buffer entry, credit counter, arbiter
 * pointer, in-flight phit, and RNG word round-trips exactly, so a
 * restored machine continues bit-identically to the uninterrupted run.
 *
 * One field list per class. Every checkpointed class has one `fields`
 * function that names its state once, in image order, through a
 * CkptArchive. Saving and restoring run that same function: a writing
 * archive appends each field, a reading archive assigns it. Work only a
 * restore needs (rebuilding live masks and doorbells, waking
 * components) follows the list under `if (ar.loading())`.
 *
 * Restore bounds what it reads. Each field carries its bound next to
 * it, and a reading archive throws CheckpointError, naming the section,
 * the moment a value leaves it:
 *  - counts against their structural bound and against what the
 *    remaining payload bytes could hold, so no read allocates more than
 *    the file could describe;
 *  - indices (nodes, endpoints, ports, VCs, pattern and route fields,
 *    promotion state, arbiter accumulators) against their ranges;
 *  - values the restoring machine already holds (wiring, VC counts,
 *    buffer depths, client names) against that machine;
 *  - wire values against the latency window after the image's cycle,
 *    one per slot;
 *  - cross-field accounting: buffered flits, grants, credit
 *    conservation and the multicast trees, after the list.
 *
 * A restore that throws has already overwritten part of the machine,
 * which is then unusable: the caller must discard it.
 *
 * Encoding rules:
 *  - all scalars are fixed-width little-endian, their width set by the
 *    field's C++ type;
 *  - sections are delimited by `tag` markers (a hash of the section
 *    name), so a drifted image fails loudly at the first divergent
 *    section instead of silently mis-decoding;
 *  - packets are deduplicated by pointer identity through an ordinal
 *    table ahead of the stream, preserving virtual cut-through sharing
 *    (the same packet referenced by a VC buffer and an in-flight phit
 *    restores as one record). Ordinals follow the order the stream
 *    visits packets, so no byte depends on an address;
 *  - the file carries a format version, a configuration fingerprint,
 *    and an FNV-1a checksum over the payload. Version and fingerprint
 *    are validated before the checksum so a reader can distinguish
 *    "wrong format" from "corrupted file".
 */
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "noc/packet.hpp"
#include "sim/wire.hpp"

namespace anton2 {

/** Current checkpoint format version. Bump on any encoding change.
 * Version 2: phits carry no payload copy, and wire rings are rounded up
 * to powers of two. Version 3: adapter ingress entries drop the unused
 * active-grant flag. Version 4: packets are fixed records - every
 * payload flit, an inline route with no counts, and the torus hops left
 * per dimension. */
inline constexpr std::uint32_t kCheckpointVersion = 4;

/** Thrown on any malformed, mismatched, or corrupted checkpoint. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** FNV-1a over a byte range (also used for section-name tags). */
std::uint64_t ckptHash(const void *data, std::size_t len);

/** Order-sensitive combiner for building configuration fingerprints. */
constexpr std::uint64_t
ckptHashCombine(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Throw CheckpointError unless @p path is a readable regular file that
 * starts with this format's magic and version (a cheap check before any
 * simulation time is spent; restore validates the rest).
 */
void checkCheckpointFile(const std::string &path);

/**
 * One checkpoint image, in one direction. A default-constructed archive
 * writes: field calls append to the stream and writeFile() seals it. An
 * archive opened on a path reads: field calls assign the next value,
 * checking the bound each carries.
 */
class CkptArchive
{
  public:
    /** The field list of one packet (see readPackets/writeFile). */
    using PacketFields = std::function<void(CkptArchive &, Packet &)>;

    /** A writing archive. */
    CkptArchive() = default;

    /** A reading archive over @p path: validates magic, version,
     * @p fingerprint, size, and checksum. */
    CkptArchive(const std::string &path, std::uint64_t fingerprint);

    bool loading() const { return loading_; }

    // --- scalars, their width chosen by their C++ type ----------------
    void io(bool &v);
    void io(std::uint8_t &v) { scalar(v); }
    void io(std::int8_t &v) { scalar(v); }
    void io(std::uint16_t &v) { scalar(v); }
    void io(std::uint32_t &v) { scalar(v); }
    void io(std::int32_t &v) { scalar(v); }
    void io(std::uint64_t &v) { scalar(v); }
    void io(double &v);
    void io(std::string &s);

    /** An enum, stored as its underlying type. */
    template <typename E>
        requires std::is_enum_v<E>
    void
    io(E &v)
    {
        auto u = static_cast<std::underlying_type_t<E>>(v);
        io(u);
        v = static_cast<E>(u);
    }

    /** A scalar (or index) whose restored value must lie in [lo, hi]. */
    template <typename T>
    void
    io(T &v, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
       const char *what)
    {
        io(v);
        check(!(v < lo) && !(hi < v), what);
    }

    /** A value held narrower than its image field: stored as a
     * @p Wide, and on restore range-checked in [lo, hi] before it is
     * narrowed, so a value that fits only after truncation fails. */
    template <typename Wide, typename T>
    void
    ioAs(T &v, Wide lo, Wide hi, const char *what)
    {
        Wide w = static_cast<Wide>(v);
        io(w, lo, hi, what);
        v = static_cast<T>(w);
    }

    /** Bit @p b of @p mask, stored as one bool. */
    void bit(std::uint32_t &mask, unsigned b);

    /**
     * The element count of a container holding @p n: stored as a u32,
     * and on restore checked against @p bound and against the remaining
     * payload at @p min_bytes per element. Returns the count.
     */
    std::size_t count(std::size_t n, std::size_t bound,
                      std::size_t min_bytes, const char *what);

    /** count() for a resizable container, resized on restore. */
    template <typename C>
    void
    size(C &c, std::size_t bound, std::size_t min_bytes, const char *what)
    {
        c.resize(count(c.size(), bound, min_bytes, what));
    }

    /** A value the restoring machine already holds (wiring, VC counts,
     * depths, names): stored, and on restore required to equal @p v. */
    template <typename T>
    void
    same(T v, const char *what)
    {
        T got = v;
        io(got);
        check(got == v, what);
    }

    /** Begin section @p name: a marker hash on save, checked on restore.
     * Errors name the latest section. */
    void tag(const char *name);

    /** A marker like tag() inside a section (a buffer, counter, or
     * arbiter of a component): errors keep naming the section. */
    void marker(const char *name);

    /** Name the part of the image later errors refer to, for checks
     * that span sections (no marker is stored). */
    void section(const char *name) { section_ = name; }

    /** A packet reference, by ordinal into the packet table. */
    void packet(PacketPtr &p, bool nullable = false);

    /**
     * On restore, record that flits [@p lo, @p hi) of @p p are held where
     * the caller keeps it: buffered, on a wire, queued for injection, or
     * consumed by a reassembly or by multicast copies. Fails if a flit is
     * held twice: each holder would release the packet.
     */
    void holds(const Packet *p, unsigned lo, unsigned hi);

    /** The cycle the image is taken at; bounds wire delivery cycles. */
    void clock(Cycle &now);
    Cycle now() const { return now_; }

    /** On restore, throw CheckpointError naming the section unless @p ok
     * (a no-op while saving). */
    void
    check(bool ok, const char *what) const
    {
        if (loading_ && !ok)
            fail(what);
    }
    [[noreturn]] void fail(const std::string &what) const;

    /**
     * Read the packet table that precedes the stream: @p fields restores
     * each packet into a scratch record and @p place stores it where it
     * will live. Call once, first.
     */
    void readPackets(const PacketFields &fields,
                     const std::function<PacketPtr(const Packet &)> &place);

    /** Every packet of the table, by ordinal (after readPackets). */
    const std::vector<PacketPtr> &packets() const { return packets_; }

    /** Fail if bytes remain after the last field (a drifted image). */
    void finish() const;

    /** Write header, packet table (each packet through @p fields), the
     * stream, and checksum to @p path. */
    void writeFile(const std::string &path, std::uint64_t fingerprint,
                   const PacketFields &fields);

  private:
    template <typename T>
    void
    scalar(T &v)
    {
        using U = std::make_unsigned_t<T>;
        U u = static_cast<U>(v);
        if (loading_) {
            const std::uint8_t *p = need(sizeof(U));
            u = 0;
            for (std::size_t i = 0; i < sizeof(U); ++i)
                u = static_cast<U>(u | (static_cast<U>(p[i]) << (8 * i)));
            v = static_cast<T>(u);
        } else {
            for (std::size_t i = 0; i < sizeof(U); ++i)
                data_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
        }
    }

    const std::uint8_t *need(std::size_t n);

    bool loading_ = false;
    std::vector<std::uint8_t> data_; ///< stream (save) or file (restore)
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    const char *section_ = "header";
    Cycle now_ = 0;
    std::vector<PacketPtr> packets_; ///< ordinal -> packet
    std::unordered_map<const Packet *, std::uint32_t> ordinals_;
    std::vector<std::uint8_t> held_; ///< restore: flits held, by ordinal
};

/**
 * The in-flight values of @p wire: ring size (held by the machine),
 * count, and each value's delivery cycle followed by @p value's field
 * list. A restored delivery cycle must lie in the wire's latency window
 * after the image's cycle, in a free slot; restoring re-rings the
 * receiver's doorbell.
 */
template <typename T, typename Fn>
void
wireFields(CkptArchive &ar, Wire<T> &wire, Fn &&value)
{
    ar.same(static_cast<std::uint32_t>(wire.ringSlots()),
            "wire ring size mismatch (different lookahead slack at save "
            "time)");
    std::size_t n = 0;
    wire.forEachSlot([&n](Cycle, const T &) { ++n; });
    n = ar.count(n, wire.latency(), 9, "wire values");
    if (!ar.loading()) {
        wire.forEachSlot([&](Cycle at, const T &v) {
            T copy = v;
            ar.io(at);
            value(copy);
        });
        return;
    }
    wire.clearAll();
    for (std::size_t i = 0; i < n; ++i) {
        Cycle at = 0;
        ar.io(at, ar.now(), ar.now() + wire.latency() - 1,
              "wire delivery cycle outside the latency window");
        T v{};
        value(v);
        ar.check(wire.restoreSlot(at, std::move(v)),
                 "two wire values in one slot");
    }
}

} // namespace anton2
