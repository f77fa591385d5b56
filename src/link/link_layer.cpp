#include "link/link_layer.hpp"

#include <cassert>
#include <cstring>

#include "debug/checkpoint.hpp"

namespace anton2 {

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

std::uint32_t
frameCrc(std::uint32_t seq, const FlitPayload &data)
{
    std::uint8_t buf[4 + sizeof(FlitPayload)];
    std::memcpy(buf, &seq, 4);
    std::memcpy(buf + 4, data.data(), sizeof(FlitPayload));
    return crc32(buf, sizeof(buf));
}

LinkSender::LinkSender(const LinkConfig &cfg, LossyFrameChannel &tx,
                       LossyFrameChannel &ack_rx)
    : cfg_(cfg), tx_(tx), ack_rx_(ack_rx)
{
}

void
LinkSender::offer(const FlitPayload &flit)
{
    queue_.push_back(flit);
}

void
LinkSender::tick(Cycle now)
{
    // Process cumulative acknowledgments.
    while (auto frame = ack_rx_.take(now)) {
        if (!frame->is_ack)
            continue;
        ++acks_rx_;
        // ack_seq acknowledges every frame with seq < ack_seq.
        while (base_ < frame->ack_seq && !queue_.empty()) {
            queue_.pop_front();
            ++base_;
            last_progress_ = now;
        }
        if (frame->ack_seq > next_)
            next_ = frame->ack_seq; // defensive; cannot happen normally
    }

    // Go-back-N: if the window has been open too long with no progress,
    // rewind and resend everything outstanding.
    if (next_ > base_ && now - last_progress_ > cfg_.retry_timeout) {
        retransmissions_ += next_ - base_;
        emitPacketEvent(events_, TraceEventType::Retransmit, now,
                        /*pkt=*/nullptr,
                        /*port=*/static_cast<int>(next_ - base_),
                        /*vc=*/0);
        next_ = base_;
        last_progress_ = now;
    }

    // Transmit at the SerDes rate, up to the window limit.
    tokens_ += kSerdesTokensPerCycle;
    if (tokens_ > kSerdesTokenCap)
        tokens_ = kSerdesTokenCap;

    const std::uint32_t unsent_index = next_ - base_;
    if (tokens_ >= kSerdesTokensPerFlit
        && unsent_index < queue_.size()
        && next_ - base_ < static_cast<std::uint32_t>(cfg_.window)) {
        LinkFrame frame;
        frame.seq = next_;
        frame.data = queue_[unsent_index];
        frame.crc = frameCrc(frame.seq, frame.data);
        tx_.send(now, frame);
        tokens_ -= kSerdesTokensPerFlit;
        ++next_;
        ++transmitted_;
        if (next_ == base_ + 1)
            last_progress_ = now; // first frame of a fresh window
    }
}

bool
LinkSender::busy() const
{
    return !queue_.empty();
}

LinkReceiver::LinkReceiver(const LinkConfig &cfg, LossyFrameChannel &rx,
                           LossyFrameChannel &ack_tx, DeliverFn deliver)
    : cfg_(cfg),
      rx_(rx),
      ack_tx_(ack_tx),
      deliver_(std::move(deliver))
{
}

void
LinkReceiver::tick(Cycle now)
{
    auto frame = rx_.take(now);
    if (!frame)
        return;

    if (!frame->crcOk()) {
        ++crc_drops_;
    } else if (frame->seq != expected_) {
        // Go-back-N accepts only the next in-order frame.
        ++order_drops_;
    } else {
        ++expected_;
        ++delivered_;
        if (deliver_)
            deliver_(frame->data, now);
    }

    // Cumulative acknowledgment (sent every received frame; a real link
    // would piggy-back or batch these).
    LinkFrame ack;
    ack.is_ack = true;
    ack.ack_seq = expected_;
    ack.crc = frameCrc(ack.seq, ack.data);
    ack_tx_.send(now, ack);
    ++acks_tx_;
}

void
LossyFrameChannel::fields(CkptArchive &ar)
{
    ar.tag("link.channel");
    wireFields(ar, wire_, [&ar](LinkFrame &f) {
        ar.io(f.seq);
        for (std::uint64_t &word : f.data)
            ar.io(word);
        ar.io(f.crc);
        ar.io(f.is_ack);
        ar.io(f.ack_seq);
    });
    std::array<std::uint64_t, 4> rng = rng_.state();
    for (std::uint64_t &word : rng)
        ar.io(word);
    if (ar.loading())
        rng_.setState(rng);
    ar.io(frames_);
}

void
LinkSender::fields(CkptArchive &ar)
{
    ar.tag("link.sender");
    ar.size(queue_, ~std::size_t{ 0 }, sizeof(FlitPayload), "link queue");
    for (FlitPayload &flit : queue_) {
        for (std::uint64_t &word : flit)
            ar.io(word);
    }
    ar.io(base_);
    ar.io(next_);
    ar.io(last_progress_);
    ar.io(tokens_, 0, kSerdesTokenCap, "serializer tokens out of range");
    ar.io(transmitted_);
    ar.io(retransmissions_);
    ar.check(next_ >= base_ && next_ - base_ <= queue_.size(),
             "go-back-N window outside the queue");
}

void
LinkReceiver::fields(CkptArchive &ar)
{
    ar.tag("link.receiver");
    ar.io(expected_);
    ar.io(delivered_);
    ar.io(crc_drops_);
    ar.io(order_drops_);
}

} // namespace anton2
