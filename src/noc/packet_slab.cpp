#include "noc/packet_slab.hpp"

#include <algorithm>
#include <cassert>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ANTON2_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define ANTON2_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#define ANTON2_IS_POISONED(p) (__asan_address_is_poisoned(p) != 0)
#else
#define ANTON2_POISON(p, n) ((void)(p), (void)(n))
#define ANTON2_UNPOISON(p, n) ((void)(p), (void)(n))
#define ANTON2_IS_POISONED(p) ((void)(p), false)
#endif

namespace anton2 {

namespace {

/** Records in the first chunk; each later chunk doubles, up to the cap. */
constexpr std::size_t kFirstChunk = 32;
constexpr std::size_t kMaxChunk = 8192;

} // namespace

PacketSlab::~PacketSlab()
{
    for (const Chunk &c : chunks_) {
        ANTON2_UNPOISON(c.records, c.size * sizeof(Packet));
        ::operator delete(c.records);
    }
}

Packet *
PacketSlab::copy(const Packet &src)
{
    Packet *p;
    if (!free_.empty()) {
        p = free_.back();
        free_.pop_back();
    } else {
        if (chunk_ < chunks_.size() && used_ == chunks_[chunk_].size) {
            ++chunk_;
            used_ = 0;
        }
        if (chunk_ == chunks_.size()) {
            // Raw storage: pages are touched only as records are used.
            const std::size_t size =
                chunks_.empty()
                    ? kFirstChunk
                    : std::min(2 * chunks_.back().size, kMaxChunk);
            auto *records =
                static_cast<Packet *>(::operator new(size * sizeof(Packet)));
            ANTON2_POISON(records, size * sizeof(Packet));
            chunks_.push_back({ records, size });
        }
        p = chunks_[chunk_].records + used_++;
    }
    ANTON2_UNPOISON(p, sizeof(Packet));
    *p = src;
    p->slab = this;
    ++live_;
    return p;
}

void
PacketSlab::release(Packet *p)
{
    assert(p != nullptr && p->slab == this && live_ > 0
           && "release of a packet this slab does not hold");
    assert(!ANTON2_IS_POISONED(p) && "packet released twice");
    ANTON2_POISON(p, sizeof(Packet));
    free_.push_back(p);
    --live_;
}

void
PacketSlab::reset()
{
    for (const Chunk &c : chunks_)
        ANTON2_POISON(c.records, c.size * sizeof(Packet));
    free_.clear();
    chunk_ = 0;
    used_ = 0;
    live_ = 0;
}

std::size_t
PacketSlab::bytes() const
{
    std::size_t total = free_.capacity() * sizeof(Packet *);
    for (const Chunk &c : chunks_)
        total += c.size * sizeof(Packet);
    return total;
}

} // namespace anton2
