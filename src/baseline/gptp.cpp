#include "baseline/gptp.hpp"

#include <algorithm>
#include <vector>

#include "autocomm/slots.hpp"
#include "support/log.hpp"

namespace autocomm::baseline {

namespace {

using qir::Gate;
using qir::GateKind;

} // namespace

GptpResult
compile_gptp(const qir::Circuit& c, const hw::QubitMapping& initial,
             const hw::Machine& m)
{
    m.validate_shape();
    m.validate_routing();
    m.validate_noise();
    initial.validate(m);
    const hw::LatencyModel& lat = m.latency;
    const double t_tele = lat.t_teleport();

    const auto nq = static_cast<std::size_t>(c.num_qubits());
    std::vector<NodeId> place(initial.assignment());
    // Per-node resident qubit lists for victim selection.
    std::vector<std::vector<QubitId>> residents(
        static_cast<std::size_t>(m.num_nodes));
    for (QubitId q = 0; q < c.num_qubits(); ++q)
        residents[static_cast<std::size_t>(
                      place[static_cast<std::size_t>(q)])]
            .push_back(q);

    std::vector<double> qready(nq, 0.0);
    std::vector<double> last_use(nq, -1.0);
    pass::SlotPool slots(m.num_nodes, m.comm_qubits_per_node);
    pass::LinkPool links(m.link, m.num_nodes);

    GptpResult res;
    double makespan = 0.0;
    auto bump = [&makespan](double t) { makespan = std::max(makespan, t); };

    auto gate_dur = [&](const Gate& g) {
        if (g.kind == GateKind::Measure || g.kind == GateKind::Reset)
            return lat.t_meas;
        return lat.gate_time(g.num_qubits);
    };

    auto run_local = [&](const Gate& g, double extra_floor) {
        double start = extra_floor;
        for (int k = 0; k < g.num_qubits; ++k)
            start = std::max(start, qready[static_cast<std::size_t>(
                                        g.qs[static_cast<std::size_t>(k)])]);
        const double end = start + gate_dur(g);
        for (int k = 0; k < g.num_qubits; ++k) {
            const auto q =
                static_cast<std::size_t>(g.qs[static_cast<std::size_t>(k)]);
            qready[q] = end;
            last_use[q] = end;
        }
        bump(end);
    };

    // Per-pair preparation plans, computed once per node pair — remote
    // swaps repeat pairs thousands of times on big circuits.
    pass::EprPlanCache plans(m);

    // Remote SWAP: teleport `mover` into `dest`, teleport an LRU victim
    // out to mover's old node. Two EPR pairs; the two teleports overlap
    // when slots allow (each node has two comm qubits).
    auto remote_swap = [&](QubitId mover, NodeId dest) {
        const NodeId src = place[static_cast<std::size_t>(mover)];
        auto& dst_list = residents[static_cast<std::size_t>(dest)];
        // LRU victim that is not mid-gate (any resident works; LRU favors
        // idle qubits, approximating partition refinement).
        QubitId victim = dst_list.front();
        for (QubitId q : dst_list)
            if (last_use[static_cast<std::size_t>(q)] <
                last_use[static_cast<std::size_t>(victim)])
                victim = q;

        // Two EPR pairs between src and dest, each reserving the shared
        // resource model (endpoint slots, swap-router slots, bandwidth
        // channels) so the baseline stays comparable to AutoComm on
        // noisy, capped, multi-hop machines.
        const double floor = std::max(
            qready[static_cast<std::size_t>(mover)],
            qready[static_cast<std::size_t>(victim)]);
        const pass::EprPairPlan& pl = plans.plan(src, dest);
        const pass::EprReservation p1 = pass::reserve_epr_route(
            slots, links, pl.route, pl.chan, pl.duration, 0.0);
        const pass::EprReservation p2 = pass::reserve_epr_route(
            slots, links, pl.route, pl.chan, pl.duration, 0.0);
        const double epr_done = std::max(p1.done, p2.done);
        const double go = std::max(epr_done, floor);
        const double done = go + t_tele; // the two teleports overlap
        slots.release(pl.route.front(), p1.slot_a, done);
        slots.release(pl.route.back(), p1.slot_b, done);
        slots.release(pl.route.front(), p2.slot_a, done);
        slots.release(pl.route.back(), p2.slot_b, done);
        res.total_comms += 2;
        res.remote_swaps += 1;

        qready[static_cast<std::size_t>(mover)] = done;
        qready[static_cast<std::size_t>(victim)] = done;
        bump(done);

        // Update placement.
        place[static_cast<std::size_t>(mover)] = dest;
        place[static_cast<std::size_t>(victim)] = src;
        std::replace(dst_list.begin(), dst_list.end(), victim, mover);
        auto& src_list = residents[static_cast<std::size_t>(src)];
        std::replace(src_list.begin(), src_list.end(), mover, victim);
    };

    for (const Gate& g : c) {
        if (g.kind == GateKind::Barrier)
            continue;
        if (g.num_qubits < 2) {
            run_local(g, 0.0);
            continue;
        }
        if (g.num_qubits > 2)
            support::fatal("gptp: decompose to 1q/2q gates first");

        const QubitId a = g.qs[0], b = g.qs[1];
        if (place[static_cast<std::size_t>(a)] !=
            place[static_cast<std::size_t>(b)]) {
            // Move the control toward the target's node (Baker's
            // time-sliced strategy moves one endpoint per remote gate).
            remote_swap(a, place[static_cast<std::size_t>(b)]);
        }
        run_local(g, 0.0);
    }

    res.makespan = makespan;
    return res;
}

} // namespace autocomm::baseline
