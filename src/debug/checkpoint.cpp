#include "debug/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace anton2 {

namespace {

/// File magic: identifies an Anton-2 checkpoint regardless of version.
constexpr std::uint8_t kMagic[8] = { 'A', '2', 'C', 'K',
                                     'P', 'T', '\0', '\1' };

/// Header: magic, u32 version, u64 fingerprint, u64 payload size.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 8 + 8;

/// Sentinel ordinal for a null packet reference.
constexpr std::uint32_t kNullPacket = 0xffffffffu;

void
putLe(std::vector<std::uint8_t> &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getLe(const std::uint8_t *p, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Read up to @p limit bytes of @p path (the whole file when 0),
 * accepting only a readable regular file. */
std::vector<std::uint8_t>
readFile(const std::string &path, std::size_t limit = 0)
{
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        throw CheckpointError("checkpoint: cannot open " + path
                              + " (not a readable regular file)");
    const auto size = std::filesystem::file_size(path, ec);
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (ec || fp == nullptr) {
        if (fp != nullptr)
            std::fclose(fp);
        throw CheckpointError("checkpoint: cannot open " + path);
    }
    std::vector<std::uint8_t> data(
        limit != 0 && limit < size ? limit : static_cast<std::size_t>(size));
    const std::size_t got =
        data.empty() ? 0 : std::fread(data.data(), 1, data.size(), fp);
    std::fclose(fp);
    if (got != data.size())
        throw CheckpointError("checkpoint: short read from " + path);
    return data;
}

/** Validate magic and version; returns the offset past them. */
std::size_t
checkMagicAndVersion(const std::vector<std::uint8_t> &data,
                     const std::string &path)
{
    if (data.size() < kHeaderBytes + 8
        || std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("checkpoint: " + path
                              + " is not an Anton-2 checkpoint");
    const auto version =
        static_cast<std::uint32_t>(getLe(data.data() + sizeof(kMagic), 4));
    if (version != kCheckpointVersion)
        throw CheckpointError(
            "checkpoint: version mismatch (file has v"
            + std::to_string(version) + ", reader expects v"
            + std::to_string(kCheckpointVersion) + ")");
    return sizeof(kMagic) + 4;
}

} // namespace

std::uint64_t
ckptHash(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
checkCheckpointFile(const std::string &path)
{
    // The header plus a checksum's worth, so a header-only file passes
    // the same size test restore applies.
    checkMagicAndVersion(readFile(path, kHeaderBytes + 8), path);
}

CkptArchive::CkptArchive(const std::string &path,
                         std::uint64_t expect_fingerprint)
    : loading_(true), data_(readFile(path))
{
    // Version and fingerprint are validated before the checksum so the
    // caller can tell a format mismatch from corruption.
    std::size_t off = checkMagicAndVersion(data_, path);
    if (getLe(data_.data() + off, 8) != expect_fingerprint)
        throw CheckpointError(
            "checkpoint: configuration fingerprint mismatch (saved from a "
            "differently configured machine)");
    off += 8;
    const std::uint64_t payload_size = getLe(data_.data() + off, 8);
    off += 8;
    if (payload_size != data_.size() - off - 8)
        throw CheckpointError("checkpoint: truncated file");
    if (ckptHash(data_.data() + off, payload_size)
        != getLe(data_.data() + off + payload_size, 8))
        throw CheckpointError("checkpoint: payload checksum mismatch "
                              "(file is corrupted)");
    pos_ = off;
    end_ = off + static_cast<std::size_t>(payload_size);
}

const std::uint8_t *
CkptArchive::need(std::size_t n)
{
    if (n > end_ - pos_)
        fail("truncated payload");
    const std::uint8_t *p = data_.data() + pos_;
    pos_ += n;
    return p;
}

void
CkptArchive::fail(const std::string &what) const
{
    throw CheckpointError(std::string("checkpoint: ") + section_ + ": "
                          + what);
}

void
CkptArchive::io(bool &v)
{
    std::uint8_t b = v ? 1 : 0;
    io(b, 0, 1, "flag is neither 0 nor 1");
    v = b != 0;
}

void
CkptArchive::io(double &v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    io(bits);
    std::memcpy(&v, &bits, sizeof(v));
}

void
CkptArchive::io(std::string &s)
{
    s.resize(count(s.size(), end_, 1, "string length"));
    for (char &c : s) {
        auto u = static_cast<std::uint8_t>(c);
        io(u);
        c = static_cast<char>(u);
    }
}

void
CkptArchive::bit(std::uint32_t &mask, unsigned b)
{
    bool set = ((mask >> b) & 1u) != 0;
    io(set);
    mask = set ? mask | (1u << b) : mask & ~(1u << b);
}

std::size_t
CkptArchive::count(std::size_t n, std::size_t bound, std::size_t min_bytes,
                   const char *what)
{
    auto c = static_cast<std::uint32_t>(n);
    io(c);
    if (loading_ && (c > bound || c * min_bytes > end_ - pos_))
        fail(std::string(what) + " count " + std::to_string(c)
             + " exceeds its bound");
    return c;
}

void
CkptArchive::tag(const char *name)
{
    section_ = name;
    marker(name);
}

void
CkptArchive::marker(const char *name)
{
    same(static_cast<std::uint32_t>(ckptHash(name, std::strlen(name))),
         "section marker mismatch (image drifted from this build)");
}

void
CkptArchive::packet(PacketPtr &p, bool nullable)
{
    std::uint32_t ord = kNullPacket;
    if (!loading_ && p != nullptr) {
        auto [it, inserted] = ordinals_.try_emplace(
            p, static_cast<std::uint32_t>(packets_.size()));
        if (inserted)
            packets_.push_back(p);
        ord = it->second;
    }
    io(ord);
    if (!loading_)
        return;
    if (ord == kNullPacket && nullable)
        p = nullptr;
    else if (ord < packets_.size())
        p = packets_[ord];
    else
        fail("packet ordinal out of range");
}

void
CkptArchive::clock(Cycle &now)
{
    io(now);
    now_ = now;
}

void
CkptArchive::readPackets(
    const PacketFields &fields,
    const std::function<PacketPtr(const Packet &)> &place)
{
    // Every later packet() resolves to the same record, reproducing
    // cut-through sharing.
    section_ = "packet table";
    packets_.resize(count(0, end_, 64, "packet"));
    held_.assign(packets_.size(), 0);
    for (std::uint32_t i = 0; i < packets_.size(); ++i) {
        Packet scratch;
        fields(*this, scratch);
        packets_[i] = place(scratch);
        ordinals_.emplace(packets_[i], i);
    }
}

void
CkptArchive::holds(const Packet *p, unsigned lo, unsigned hi)
{
    if (!loading_)
        return;
    std::uint8_t &held = held_[ordinals_.at(p)];
    const auto flits = static_cast<std::uint8_t>((1u << hi) - (1u << lo));
    if ((held & flits) != 0)
        fail("a packet flit is held in two places");
    held = static_cast<std::uint8_t>(held | flits);
}

void
CkptArchive::finish() const
{
    if (pos_ != end_)
        fail("trailing bytes after the last field (image drifted from "
             "this build)");
}

void
CkptArchive::writeFile(const std::string &path, std::uint64_t fingerprint,
                       const PacketFields &fields)
{
    // Packets hold no packet references, so the table's scratch archive
    // runs only the scalar paths.
    CkptArchive table;
    table.count(packets_.size(), 0, 0, "packet");
    for (const PacketPtr &p : packets_)
        fields(table, *p);

    std::vector<std::uint8_t> file(kMagic, kMagic + sizeof(kMagic));
    putLe(file, kCheckpointVersion, 4);
    putLe(file, fingerprint, 8);
    const std::size_t payload = table.data_.size() + data_.size();
    putLe(file, payload, 8);
    file.insert(file.end(), table.data_.begin(), table.data_.end());
    file.insert(file.end(), data_.begin(), data_.end());
    putLe(file, ckptHash(file.data() + kHeaderBytes, payload), 8);

    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (fp == nullptr)
        throw CheckpointError("checkpoint: cannot open " + path
                              + " for writing");
    const std::size_t n = std::fwrite(file.data(), 1, file.size(), fp);
    const bool ok = n == file.size() && std::fclose(fp) == 0;
    if (!ok)
        throw CheckpointError("checkpoint: short write to " + path);
}

} // namespace anton2
