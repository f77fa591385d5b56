/**
 * @file
 * Link layer of the external torus channels (Section 2.2): framing, CRC
 * error detection, and go-back-N retransmission.
 *
 * Each external channel runs over SerDes lanes whose raw bit error rate is
 * non-zero; the link layer turns the lossy physical channel into the
 * reliable, in-order flit pipe the network layer assumes (the paper's
 * effective bandwidth of 89.6 Gb/s per direction is net of this framing
 * and retry overhead). The cycle-level network model in core/ uses the
 * reliable abstraction; this module implements and property-tests the
 * mechanism itself, with bit-flip error injection.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/channel_adapter.hpp"
#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/wire.hpp"

namespace anton2 {

/** CRC-32 (reflected 0xEDB88320), bitwise implementation. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/** CRC over a flit payload and its sequence number. */
std::uint32_t frameCrc(std::uint32_t seq, const FlitPayload &data);

/** One link-layer frame: a flit plus sequencing and protection. */
struct LinkFrame
{
    std::uint32_t seq = 0;
    FlitPayload data{};
    std::uint32_t crc = 0;

    bool is_ack = false;     ///< piggy-backed/standalone acknowledgment
    std::uint32_t ack_seq = 0; ///< cumulative: all frames < ack_seq received

    bool
    crcOk() const
    {
        return crc == frameCrc(seq, data);
    }
};

/**
 * A frame channel that flips payload bits with a configurable probability,
 * modeling SerDes bit errors. The CRC is computed before injection, so
 * corrupted frames arrive CRC-invalid.
 */
class LossyFrameChannel
{
  public:
    LossyFrameChannel(Cycle latency, double bit_error_prob,
                      std::uint64_t seed)
        : wire_(latency), flip_prob_(bit_error_prob), rng_(seed)
    {
    }

    void
    send(Cycle now, LinkFrame frame)
    {
        if (flip_prob_ > 0.0) {
            for (auto &word : frame.data) {
                for (int b = 0; b < 64; ++b) {
                    if (rng_.chance(flip_prob_))
                        word ^= 1ULL << b;
                }
            }
        }
        wire_.send(now, frame);
        ++frames_;
    }

    std::optional<LinkFrame> take(Cycle now) { return wire_.take(now); }
    bool busy() const { return wire_.busy(); }
    std::uint64_t framesSent() const { return frames_; }

    /** Checkpoint field list: in-flight frames, the error-injection
     * RNG, and the frame tally. Set the archive's clock first: it bounds
     * the frames' delivery cycles. */
    void fields(CkptArchive &ar);

  private:
    Wire<LinkFrame> wire_;
    double flip_prob_;
    Rng rng_;
    std::uint64_t frames_ = 0;
};

/** Configuration shared by the sender and receiver. */
struct LinkConfig
{
    int window = 8;          ///< go-back-N window size (outstanding frames)
    Cycle retry_timeout = 64; ///< resend window after this silence
};

/**
 * Go-back-N sender: accepts flits into an unbounded queue, transmits them
 * as CRC-protected frames at the SerDes rate, and retransmits the whole
 * window when an expected acknowledgment fails to arrive in time.
 */
class LinkSender : public Component
{
  public:
    LinkSender(const LinkConfig &cfg, LossyFrameChannel &tx,
               LossyFrameChannel &ack_rx);

    /** Queue one flit for reliable delivery. */
    void offer(const FlitPayload &flit);

    void tick(Cycle now) override;
    bool busy() const override;

    /**
     * Start emitting a retransmit event per go-back-N rewind into
     * @p events. Frames carry no packet identity, so the records have
     * packet id 0 and always pass the trace's sampling filter.
     */
    void
    bindEvents(PacketEventStream &events, std::int32_t node,
               std::int16_t unit)
    {
        events_ = { &events, node, unit, TraceUnitKind::Link };
    }

    /** Frames sent, resends included. */
    std::uint64_t framesTransmitted() const { return transmitted_; }
    std::uint64_t retransmissions() const { return retransmissions_; }
    /** Acknowledgments received (not checkpointed). */
    std::uint64_t acksReceived() const { return acks_rx_; }
    std::size_t backlog() const { return queue_.size(); }

    /** Checkpoint field list of the go-back-N window: queue, sequence
     * state, timer, tokens, and tallies. */
    void fields(CkptArchive &ar);

  private:
    LinkConfig cfg_;
    LossyFrameChannel &tx_;
    LossyFrameChannel &ack_rx_;
    EventBinding events_;

    std::deque<FlitPayload> queue_; ///< unacknowledged + unsent flits
    std::uint32_t base_ = 0;        ///< seq of oldest unacked frame
    std::uint32_t next_ = 0;        ///< next seq to transmit
    Cycle last_progress_ = 0;
    int tokens_ = 0;
    std::uint64_t transmitted_ = 0;
    std::uint64_t retransmissions_ = 0;
    std::uint64_t acks_rx_ = 0;
};

/**
 * Go-back-N receiver: accepts in-order, CRC-valid frames, delivers them
 * via callback, and returns cumulative acknowledgments.
 */
class LinkReceiver : public Component
{
  public:
    using DeliverFn = std::function<void(const FlitPayload &, Cycle)>;

    LinkReceiver(const LinkConfig &cfg, LossyFrameChannel &rx,
                 LossyFrameChannel &ack_tx, DeliverFn deliver);

    void tick(Cycle now) override;
    bool busy() const override { return false; }

    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t crcDrops() const { return crc_drops_; }
    std::uint64_t orderDrops() const { return order_drops_; }
    /** Cumulative acknowledgments sent (not checkpointed). */
    std::uint64_t acksSent() const { return acks_tx_; }

    /** Checkpoint field list: the expected sequence number and
     * tallies. */
    void fields(CkptArchive &ar);

  private:
    LinkConfig cfg_;
    LossyFrameChannel &rx_;
    LossyFrameChannel &ack_tx_;
    DeliverFn deliver_;
    std::uint32_t expected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t crc_drops_ = 0;
    std::uint64_t order_drops_ = 0;
    std::uint64_t acks_tx_ = 0;
};

} // namespace anton2
