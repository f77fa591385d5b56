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
 * Encoding rules:
 *  - all scalars are fixed-width little-endian;
 *  - sections are delimited by `tag`/`expect` markers (a hash of the
 *    section name) so a drifted save/load pairing fails loudly at the
 *    first divergent section instead of silently mis-decoding;
 *  - packets are deduplicated by pointer identity through an ordinal
 *    table, preserving virtual cut-through sharing (the same packet
 *    simultaneously referenced by a VC buffer and an in-flight phit
 *    decodes back to one shared object);
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
#include <unordered_map>
#include <vector>

#include "noc/packet.hpp"

namespace anton2 {

/** Current checkpoint format version. Bump on any encoding change.
 * Version 2: phits carry no payload copy, and wire rings are rounded up
 * to powers of two. Version 3: adapter ingress entries drop the unused
 * active-grant flag. */
inline constexpr std::uint32_t kCheckpointVersion = 3;

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
 * Serializer for one checkpoint. Components append their state through
 * the scalar writers; `packetRef` records a shared-packet reference by
 * ordinal. `writeFile` assembles header + packet table + component
 * stream + checksum.
 */
class CkptWriter
{
  public:
    void u8(std::uint8_t v) { raw(&v, 1); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v);
    void cycle(Cycle c) { u64(c); }
    void str(const std::string &s);

    /** Begin a named section; the reader must `expect` the same name. */
    void tag(const char *name);

    /** Record a shared-packet reference (null allowed). */
    void packetRef(const PacketPtr &p);

    /** Assemble and write the checkpoint file. */
    void writeFile(const std::string &path, std::uint64_t fingerprint);

  private:
    void raw(const void *p, std::size_t n);

    std::vector<std::uint8_t> stream_;
    std::vector<PacketPtr> packets_; ///< ordinal -> packet
    std::unordered_map<const Packet *, std::uint32_t> ordinals_;
};

/**
 * Deserializer for one checkpoint. The constructor parses and validates
 * the header (version, fingerprint, checksum) and materializes the
 * packet table through @p alloc (required when the checkpoint holds
 * packets; pass nullptr for packet-free standalone state).
 */
class CkptReader
{
  public:
    using PacketAlloc = std::function<PacketPtr()>;

    CkptReader(const std::string &path, std::uint64_t expect_fingerprint,
               PacketAlloc alloc);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double f64();
    Cycle cycle() { return u64(); }
    std::string str();

    /** Validate a section marker written by CkptWriter::tag. */
    void expect(const char *name);

    /** Resolve a shared-packet reference (identity-preserving). */
    PacketPtr packetRef();

    /** Fail if trailing bytes remain (save/load drift detector). */
    void finish() const;

  private:
    const std::uint8_t *need(std::size_t n);

    std::vector<std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::vector<PacketPtr> packets_;
};

/** Encode/decode one packet's full field set (used by the table). */
void ckptEncodePacket(CkptWriter &w, const Packet &p);
void ckptDecodePacket(CkptReader &r, Packet &p);

} // namespace anton2
