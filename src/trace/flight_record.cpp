#include "trace/flight_record.hpp"

#include <map>

namespace anton2 {

namespace {

struct Flight
{
    Cycle inject_cycle = kNoCycle;
    std::int32_t src_node = -1;
    std::int16_t src_ep = -1;
    Cycle eject_cycle = kNoCycle; ///< last eject (multicast: final copy)
    std::int32_t dst_node = -1;
    std::int16_t dst_ep = -1;
    std::uint64_t routers = 0;    ///< RouteComputed records
    std::uint64_t grants = 0;     ///< SwitchGrant records
    std::uint64_t link_hops = 0;  ///< LinkTraverse records
    std::uint64_t ejects = 0;
    std::int16_t hops = -1;       ///< Packet::hops (Eject record's port)
};

} // namespace

std::string
flightRecordCsv(const std::vector<TraceEvent> &events)
{
    // std::map: rows come out sorted by packet id, deterministically.
    std::map<std::uint64_t, Flight> flights;
    for (const auto &ev : events) {
        if (ev.packet == 0)
            continue; // packet-less records (retransmits) have no flight
        Flight &f = flights[ev.packet];
        switch (ev.type) {
          case TraceEventType::Inject:
            f.inject_cycle = ev.cycle;
            f.src_node = ev.node;
            f.src_ep = ev.unit;
            break;
          case TraceEventType::Eject:
            f.eject_cycle = ev.cycle;
            f.dst_node = ev.node;
            f.dst_ep = ev.unit;
            f.hops = ev.port; // the Eject record carries Packet::hops
            ++f.ejects;
            break;
          case TraceEventType::RouteComputed: ++f.routers; break;
          case TraceEventType::SwitchGrant: ++f.grants; break;
          case TraceEventType::LinkTraverse: ++f.link_hops; break;
          case TraceEventType::VcAllocated:
          case TraceEventType::Retransmit:
          case TraceEventType::Depart: // never in the ring
            break;
        }
    }

    std::string out = "packet,inject_cycle,src_node,src_ep,eject_cycle,"
                      "dst_node,dst_ep,latency_cycles,routers,grants,"
                      "link_hops,ejects,hops\n";
    auto cell = [](auto v, bool valid) {
        return valid ? std::to_string(v) : std::string();
    };
    for (const auto &[id, f] : flights) {
        const bool injected = f.inject_cycle != kNoCycle;
        const bool ejected = f.eject_cycle != kNoCycle;
        out += std::to_string(id);
        out += "," + cell(f.inject_cycle, injected);
        out += "," + cell(f.src_node, injected);
        out += "," + cell(f.src_ep, injected);
        out += "," + cell(f.eject_cycle, ejected);
        out += "," + cell(f.dst_node, ejected);
        out += "," + cell(f.dst_ep, ejected);
        out += "," + cell(f.eject_cycle - f.inject_cycle,
                          injected && ejected);
        out += "," + std::to_string(f.routers);
        out += "," + std::to_string(f.grants);
        out += "," + std::to_string(f.link_hops);
        out += "," + std::to_string(f.ejects);
        out += "," + cell(f.hops, ejected);
        out += "\n";
    }
    return out;
}

} // namespace anton2
