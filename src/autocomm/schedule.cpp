#include "autocomm/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "autocomm/slots.hpp"
#include "obs/decision.hpp"
#include "support/log.hpp"

namespace autocomm::pass {

namespace {

using qir::Gate;
using qir::GateKind;

/** One scheduling unit: a plain gate or a whole top-level block. */
struct Unit
{
    bool is_block = false;
    std::size_t index = 0; // reordered gate index, or block id
};

/** "0-3-2" rendering of a route for decision payloads. */
std::string
route_string(const std::vector<NodeId>& route)
{
    std::string s;
    for (std::size_t i = 0; i < route.size(); ++i) {
        if (i != 0)
            s += '-';
        s += std::to_string(route[i]);
    }
    return s;
}

double
gate_duration(const Gate& g, const hw::LatencyModel& lat)
{
    switch (g.kind) {
      case GateKind::Barrier:
        return 0.0;
      case GateKind::Measure:
      case GateKind::Reset:
        return lat.t_meas;
      default:
        return lat.gate_time(g.num_qubits);
    }
}

/**
 * The list scheduler's working state, laid out flat: block bodies in
 * layout_bodies' single arena, plain member functions instead of
 * recursive std::functions, and per-pair ledger counts accumulated in a
 * dense array that is folded into the EprLedger maps once at the end.
 * record_fidelity() stays a per-preparation call in scheduling order —
 * the log-fidelity sum is a double whose value depends on summation
 * order, and the sweep cache guarantees byte-identical metrics.
 */
struct Scheduler
{
    const qir::Circuit& reordered;
    const std::vector<CommBlock>& blocks;
    const std::vector<std::size_t>& block_start;
    const hw::QubitMapping& map;
    const hw::Machine& m;
    const ScheduleOptions& opts;

    const hw::LatencyModel& lat = m.latency;
    const double t_tele = lat.t_teleport();
    const double t_ent = lat.t_cat_entangle();
    const double t_dis = lat.t_cat_disentangle();

    // Block bodies in reordered coordinates (one flat arena).
    BlockBodies bodies;
    std::vector<Unit> units;
    std::vector<char> fuse_next;

    SlotPool slots{m.num_nodes, m.comm_qubits_per_node};
    LinkPool links{m.link};
    EprPlanCache plans{m, /*note_decisions=*/true};
    std::vector<double> qready;
    ScheduleResult res;
    double makespan = 0.0;

    struct Vessel
    {
        bool away = false;
        NodeId node = kInvalidId;
        int slot = -1;
        /** The parked slot was left open by TP fusion (counted in
         * res.fused_links); an eviction un-saves that return. */
        bool fused_pending = false;
    };
    std::vector<Vessel> vessel;
    // A hub is pinned while its chain must not be evicted: mid-close,
    // or while its own block is actively scheduling (a nested child's
    // preparation must not teleport away the channel it rides on).
    std::vector<char> pinned;
    // Hubs whose vessel is currently away, kept sorted ascending so
    // eviction scans visit candidates in the same (lowest-qubit-first)
    // order a full vessel sweep would, without the O(num_qubits) walk.
    std::vector<QubitId> away_hubs;

    // Purified-pair counts per normalized node pair (min * n + max) for
    // preparations that used the routing table's plan; folded into the
    // ledger maps at the end. Detour preparations hit the ledger
    // directly — they are rare and carry per-route state.
    std::vector<std::size_t> pair_batch;

    Scheduler(const qir::Circuit& reordered_,
              const std::vector<CommBlock>& blocks_,
              const std::vector<std::size_t>& block_start_,
              const hw::QubitMapping& map_, const hw::Machine& m_,
              const ScheduleOptions& opts_)
        : reordered(reordered_), blocks(blocks_),
          block_start(block_start_), map(map_), m(m_), opts(opts_),
          qready(static_cast<std::size_t>(reordered_.num_qubits()), 0.0),
          vessel(static_cast<std::size_t>(reordered_.num_qubits())),
          pinned(static_cast<std::size_t>(reordered_.num_qubits()), 0),
          pair_batch(static_cast<std::size_t>(m_.num_nodes) *
                         static_cast<std::size_t>(m_.num_nodes),
                     0)
    {
    }

    void bump(double t) { makespan = std::max(makespan, t); }

    double hub_ready(QubitId h) const
    {
        return qready[static_cast<std::size_t>(h)];
    }

    void
    mark_away(QubitId h)
    {
        const auto it =
            std::lower_bound(away_hubs.begin(), away_hubs.end(), h);
        if (it == away_hubs.end() || *it != h)
            away_hubs.insert(it, h);
    }

    void
    mark_home(QubitId h)
    {
        const auto it =
            std::lower_bound(away_hubs.begin(), away_hubs.end(), h);
        if (it != away_hubs.end() && *it == h)
            away_hubs.erase(it);
    }

    void
    build_bodies_and_units()
    {
        bodies = layout_bodies(blocks, block_start);

        std::vector<std::size_t> block_at(reordered.size(),
                                          static_cast<std::size_t>(-1));
        for (std::size_t b = 0; b < blocks.size(); ++b)
            if (blocks[b].parent == -1)
                block_at[block_start[b]] = b;
        std::size_t i = 0;
        while (i < reordered.size()) {
            const std::size_t b = block_at[i];
            if (b != static_cast<std::size_t>(-1)) {
                units.push_back({true, b});
                i += bodies.total[b];
            } else {
                units.push_back({false, i});
                ++i;
            }
        }
    }

    // ---- TP fusion pre-pass (top-level blocks only) ----
    // A chain stays open for hub h while no unit between two TP blocks
    // of h acts on h. A parked vessel occupies one of its node's comm
    // qubits, so a TP block targeting a node that hosts another hub's
    // parked vessel evicts that chain first.
    void
    plan_tp_fusion()
    {
        fuse_next.assign(blocks.size(), 0);
        if (!opts.tp_fusion)
            return;
        const auto nq = static_cast<std::size_t>(reordered.num_qubits());
        std::vector<long> open_tp(nq, -1);
        std::vector<NodeId> vessel_node(nq, kInvalidId);
        std::vector<long> parked_at(
            static_cast<std::size_t>(m.num_nodes), -1);

        auto close_chain = [&](QubitId q) {
            const long blk_id = open_tp[static_cast<std::size_t>(q)];
            if (blk_id < 0)
                return;
            const NodeId at = vessel_node[static_cast<std::size_t>(q)];
            if (at != kInvalidId &&
                parked_at[static_cast<std::size_t>(at)] == blk_id)
                parked_at[static_cast<std::size_t>(at)] = -1;
            open_tp[static_cast<std::size_t>(q)] = -1;
            vessel_node[static_cast<std::size_t>(q)] = kInvalidId;
        };

        for (const Unit& u : units) {
            if (!u.is_block) {
                const Gate& g = reordered[u.index];
                for (int k = 0; k < g.num_qubits; ++k)
                    close_chain(g.qs[static_cast<std::size_t>(k)]);
                continue;
            }
            const CommBlock& blk = blocks[u.index];
            const long prev = open_tp[static_cast<std::size_t>(blk.hub)];

            // The block's transitive gate range is contiguous in the
            // reordered circuit; any non-hub qubit it acts on must be
            // home, so those chains close. Nested children also pin comm
            // qubits, so be conservative and close chains on every
            // touched qubit other than the hub.
            for (std::size_t p = block_start[u.index];
                 p < block_start[u.index] + bodies.total[u.index]; ++p) {
                const Gate& g = reordered[p];
                for (int k = 0; k < g.num_qubits; ++k) {
                    const QubitId q = g.qs[static_cast<std::size_t>(k)];
                    if (q != blk.hub)
                        close_chain(q);
                }
            }

            if (blk.scheme != Scheme::TP || !blk.children.empty()) {
                // Blocks with nested children keep both comm qubits of
                // their nodes busy; do not thread a chain through them.
                close_chain(blk.hub);
                continue;
            }

            const NodeId target = blk.remote_node;
            const long foreign =
                parked_at[static_cast<std::size_t>(target)];
            if (foreign >= 0 &&
                blocks[static_cast<std::size_t>(foreign)].hub != blk.hub) {
                fuse_next[static_cast<std::size_t>(foreign)] = 0;
                close_chain(blocks[static_cast<std::size_t>(foreign)].hub);
            }

            if (prev >= 0) {
                fuse_next[static_cast<std::size_t>(prev)] = 1;
                const NodeId old =
                    vessel_node[static_cast<std::size_t>(blk.hub)];
                if (old != kInvalidId &&
                    parked_at[static_cast<std::size_t>(old)] == prev)
                    parked_at[static_cast<std::size_t>(old)] = -1;
            }
            open_tp[static_cast<std::size_t>(blk.hub)] =
                static_cast<long>(u.index);
            vessel_node[static_cast<std::size_t>(blk.hub)] = target;
            parked_at[static_cast<std::size_t>(target)] =
                static_cast<long>(u.index);
        }
    }

    // First node of @p route whose comm slots are parked at an
    // unresolved (infinite) free time — endpoints need one slot, swap
    // routers two — or kInvalidId when the route can be reserved.
    NodeId
    blocked_node(const std::vector<NodeId>& route) const
    {
        if (std::isinf(slots.earliest(route.front())))
            return route.front();
        if (std::isinf(slots.earliest(route.back())))
            return route.back();
        for (std::size_t i = 1; i + 1 < route.size(); ++i)
            if (std::isinf(slots.earliest_k(route[i], 2)))
                return route[i];
        return kInvalidId;
    }

    void
    evict_conflicts(const std::vector<NodeId>& route, QubitId exempt_hub)
    {
        for (;;) {
            const NodeId blocked = blocked_node(route);
            if (blocked == kInvalidId)
                return;
            QubitId victim = kInvalidId;
            for (const QubitId q : away_hubs)
                if (vessel[static_cast<std::size_t>(q)].away &&
                    vessel[static_cast<std::size_t>(q)].node == blocked &&
                    !pinned[static_cast<std::size_t>(q)] &&
                    q != exempt_hub) {
                    victim = q;
                    break;
                }
            if (victim == kInvalidId)
                return; // nothing evictable; caller may try a detour
            obs::decision(
                "schedule.evict", "route-conflict",
                obs::arg("victim", victim), obs::arg("node", blocked),
                obs::arg("fused_pending",
                         vessel[static_cast<std::size_t>(victim)]
                                 .fused_pending
                             ? 1
                             : 0));
            close_vessel(victim);
        }
    }

    // Shortest alternative route lo -> hi whose swap routers all have
    // two resolvable comm slots, found by BFS over the physical
    // adjacency in ascending node order (deterministic). Used when the
    // minimal route crosses a node whose slots are parked by a *pinned*
    // vessel — e.g. a nested child's preparation routed through the node
    // its own parent block is teleporting to — which eviction must not
    // touch. Returns empty when no such route exists (or the blockage is
    // at an endpoint, which no detour can avoid); the reservation then
    // surfaces the unresolved time and the makespan goes infinite, which
    // the verifier flags.
    std::vector<NodeId>
    find_detour(NodeId lo, NodeId hi) const
    {
        const auto nn = static_cast<std::size_t>(m.num_nodes);
        std::vector<NodeId> prev(nn, kInvalidId);
        std::vector<char> seen(nn, 0);
        std::vector<NodeId> queue;
        seen[static_cast<std::size_t>(lo)] = 1;
        queue.push_back(lo);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const NodeId u = queue[head];
            for (NodeId v = 0; v < m.num_nodes; ++v) {
                if (seen[static_cast<std::size_t>(v)] || m.hops(u, v) != 1)
                    continue;
                if (v != hi && std::isinf(slots.earliest_k(v, 2)))
                    continue; // would have to swap through a parked node
                seen[static_cast<std::size_t>(v)] = 1;
                prev[static_cast<std::size_t>(v)] = u;
                if (v == hi) {
                    std::vector<NodeId> route;
                    for (NodeId n = hi; n != kInvalidId;
                         n = prev[static_cast<std::size_t>(n)])
                        route.push_back(n);
                    std::reverse(route.begin(), route.end());
                    return route;
                }
                queue.push_back(v);
            }
        }
        return {};
    }

    // A parked vessel keeps its comm slot reserved with a release time
    // the sequential scheduler learns only when the chain closes. A
    // later preparation whose route needs that slot — one per endpoint,
    // two per intermediate swap router — would read an unresolved
    // (infinite) free time and poison the whole timeline. The fusion
    // pre-pass cannot see this: routes are machine-dependent. Evict at
    // reservation time instead: teleport the offending vessel home
    // (spending the return pair fusion had hoped to save), then reserve.
    std::tuple<double, int, int>
    prepare_epr_from(NodeId a, NodeId b, double ready_floor,
                     QubitId exempt_hub)
    {
        const EprPairPlan& base = plans.plan(a, b);
        const double t_min = opts.epr_prefetch ? 0.0 : ready_floor;

        evict_conflicts(base.route, exempt_hub);

        const EprPairPlan* pl = &base;
        EprPairPlan detour;
        bool detoured = false;
        const NodeId blocked = blocked_node(base.route);
        if (blocked != kInvalidId && blocked != base.route.front() &&
            blocked != base.route.back()) {
            std::vector<NodeId> alt =
                find_detour(base.route.front(), base.route.back());
            if (!alt.empty()) {
                detour = plans.plan_for_route(std::move(alt));
                pl = &detour;
                detoured = true;
                ++res.detours;
                if (obs::enabled())
                    obs::decision(
                        "schedule.detour", "taken", obs::arg("a", a),
                        obs::arg("b", b),
                        obs::arg("blocked_node", blocked),
                        obs::arg("original", route_string(base.route)),
                        obs::arg("chosen", route_string(detour.route)),
                        obs::arg("extra_hops",
                                 detour.hops - base.hops));
            }
        }

        // Note: plans are keyed (min, max), so a request in the other
        // direction reserves its endpoint slots in route order; the
        // returned slot ids are mapped back to the caller's (a, b).
        const EprReservation rsv = reserve_epr_route(
            slots, links, pl->route, pl->chan, pl->duration, t_min);
        const int sa = a == pl->route.front() ? rsv.slot_a : rsv.slot_b;
        const int sb = a == pl->route.front() ? rsv.slot_b : rsv.slot_a;

        ++res.epr_pairs;
        res.hops_total += static_cast<std::size_t>(pl->hops);
        res.epr_raw_pairs += pl->raw * static_cast<std::size_t>(pl->hops);
        res.purify_rounds += static_cast<std::size_t>(pl->rounds);
        if (detoured) {
            res.ledger.consume(a, b);
            res.ledger.consume_route(pl->route);
            for (std::size_t i = 0; i + 1 < pl->route.size(); ++i)
                res.ledger.consume_raw(pl->route[i], pl->route[i + 1],
                                       pl->raw);
        } else {
            // Routing-table preparation: defer the map updates to one
            // batched fold per pair at the end (flush_pair_batch).
            const NodeId lo = a < b ? a : b;
            const NodeId hi = a < b ? b : a;
            ++pair_batch[static_cast<std::size_t>(lo) *
                             static_cast<std::size_t>(m.num_nodes) +
                         static_cast<std::size_t>(hi)];
        }
        res.ledger.record_fidelity(pl->fidelity);
        return {rsv.done, sa, sb};
    }

    std::tuple<double, int, int>
    prepare_epr(NodeId a, NodeId b, double ready_floor)
    {
        return prepare_epr_from(a, b, ready_floor, kInvalidId);
    }

    void
    flush_pair_batch()
    {
        const auto n = static_cast<std::size_t>(m.num_nodes);
        for (std::size_t idx = 0; idx < pair_batch.size(); ++idx) {
            const std::size_t count = pair_batch[idx];
            if (count == 0)
                continue;
            const NodeId a = static_cast<NodeId>(idx / n);
            const NodeId b = static_cast<NodeId>(idx % n);
            const EprPairPlan& pl = plans.plan(a, b);
            res.ledger.consume(a, b, count);
            res.ledger.consume_route(pl.route, count);
            for (std::size_t i = 0; i + 1 < pl.route.size(); ++i)
                res.ledger.consume_raw(pl.route[i], pl.route[i + 1],
                                       pl.raw * count);
        }
    }

    void
    close_vessel(QubitId hub)
    {
        Vessel& v = vessel[static_cast<std::size_t>(hub)];
        pinned[static_cast<std::size_t>(hub)] = 1;
        const NodeId home_node = map.node_of(hub);
        auto [epr_done, s_from, s_home] =
            prepare_epr_from(v.node, home_node, hub_ready(hub), hub);
        const double t_start = std::max(epr_done, hub_ready(hub));
        const double home = t_start + t_tele;
        ++res.teleports;
        slots.release(v.node, s_from, home);
        slots.release(v.node, v.slot, home);
        slots.release(home_node, s_home, home);
        qready[static_cast<std::size_t>(hub)] = home;
        if (v.fused_pending && res.fused_links > 0)
            --res.fused_links;
        v = Vessel{};
        mark_home(hub);
        pinned[static_cast<std::size_t>(hub)] = 0;
        bump(home);
    }

    void
    run_gate_local(const Gate& g)
    {
        double start = 0.0;
        for (int k = 0; k < g.num_qubits; ++k)
            start = std::max(start,
                             qready[static_cast<std::size_t>(
                                 g.qs[static_cast<std::size_t>(k)])]);
        const double end = start + gate_duration(g, lat);
        for (int k = 0; k < g.num_qubits; ++k)
            qready[static_cast<std::size_t>(
                g.qs[static_cast<std::size_t>(k)])] = end;
        bump(end);
    }

    // Execute the arena items [begin, end) of a block's body once the
    // channel is up at time t0, stopping after @p member_budget member
    // gates have run. Member gates (and anything touching the hub)
    // serialize on the channel; other gates run on their own timelines;
    // nested children schedule recursively. Advances @p cursor past the
    // items consumed and returns the channel completion time.
    double
    run_body_slice(const CommBlock& blk, std::size_t& cursor,
                   std::size_t end, std::size_t member_budget, double t0)
    {
        double channel = t0;
        std::size_t members_run = 0;
        while (cursor < end && members_run < member_budget) {
            const BodyItem it = bodies.items[cursor];
            ++cursor;
            if (it.is_child) {
                schedule_block(it.index);
                continue;
            }
            const Gate& g = reordered[it.index];
            if (it.is_member)
                ++members_run;
            if (it.is_member || g.acts_on(blk.hub)) {
                double start = channel;
                for (int k = 0; k < g.num_qubits; ++k) {
                    const QubitId q = g.qs[static_cast<std::size_t>(k)];
                    if (q == blk.hub)
                        continue; // hub state rides the channel
                    start = std::max(
                        start, qready[static_cast<std::size_t>(q)]);
                }
                const double gend = start + gate_duration(g, lat);
                channel = gend;
                for (int k = 0; k < g.num_qubits; ++k) {
                    const QubitId q = g.qs[static_cast<std::size_t>(k)];
                    if (q != blk.hub)
                        qready[static_cast<std::size_t>(q)] = gend;
                }
                bump(gend);
            } else {
                run_gate_local(g);
            }
        }
        return channel;
    }

    void
    schedule_block(std::size_t b)
    {
        const CommBlock& blk = blocks[b];
        Vessel& ves = vessel[static_cast<std::size_t>(blk.hub)];

        // A block with nested children holds a comm slot at its remote
        // node across the children's scheduling (the Cat remote copy, or
        // the TP vessel). If a foreign parked vessel sits in the node's
        // other slot, a child's preparation there — and the eviction
        // teleport that could clear it, which needs a pair endpoint slot
        // of its own — would both find the node full. Evict now, while a
        // free slot still exists for the eviction's EPR pair.
        if (!blk.children.empty()) {
            const std::vector<QubitId> away_now = away_hubs;
            for (const QubitId q : away_now)
                if (vessel[static_cast<std::size_t>(q)].away &&
                    !pinned[static_cast<std::size_t>(q)] &&
                    q != blk.hub &&
                    vessel[static_cast<std::size_t>(q)].node ==
                        blk.remote_node) {
                    obs::decision("schedule.evict", "block-entry",
                                  obs::arg("victim", q),
                                  obs::arg("node", blk.remote_node),
                                  obs::arg("hub", blk.hub));
                    close_vessel(q);
                }
        }

        if (blk.scheme == Scheme::Cat) {
            assert(!ves.away && "cat block scheduled while hub is away");
            const std::size_t whole = blk.members.size();
            const std::size_t* seg_at = blk.cat_segments.data();
            std::size_t seg_count = blk.cat_segments.size();
            if (seg_count == 0) {
                seg_at = &whole;
                seg_count = 1;
            }

            std::size_t cursor = bodies.off[b];
            const std::size_t end = bodies.off[b + 1];
            for (std::size_t s = 0; s < seg_count; ++s) {
                auto [epr_done, s_hub, s_rem] = prepare_epr(
                    blk.hub_node, blk.remote_node, hub_ready(blk.hub));
                const double e_start =
                    std::max(epr_done, hub_ready(blk.hub));
                const double e_end = e_start + t_ent;
                // Hub-side comm qubit is measured during the entangle.
                slots.release(blk.hub_node, s_hub, e_end);

                const double channel =
                    run_body_slice(blk, cursor, end, seg_at[s], e_end);

                const double d_start =
                    std::max(channel, hub_ready(blk.hub));
                const double d_end = d_start + t_dis;
                qready[static_cast<std::size_t>(blk.hub)] = d_end;
                slots.release(blk.remote_node, s_rem, d_end);
                bump(d_end);
            }
            // Trailing items after the last member.
            while (cursor < end) {
                const BodyItem it = bodies.items[cursor];
                if (it.is_child)
                    schedule_block(it.index);
                else
                    run_gate_local(reordered[it.index]);
                ++cursor;
            }
            return;
        }

        // ---- TP block ----
        pinned[static_cast<std::size_t>(blk.hub)] = 1;
        const NodeId from = ves.away ? ves.node : blk.hub_node;
        // Using the vessel realizes the previous link's saved return.
        ves.fused_pending = false;
        double arrive;
        int vessel_slot;
        if (from == blk.remote_node) {
            // Fused chain revisiting the same node: nothing to move.
            arrive = hub_ready(blk.hub);
            vessel_slot = ves.slot;
        } else {
            auto [epr_done, s_from, s_to] = prepare_epr_from(
                from, blk.remote_node, hub_ready(blk.hub), blk.hub);
            const double t_start = std::max(epr_done, hub_ready(blk.hub));
            arrive = t_start + t_tele;
            ++res.teleports;
            slots.release(from, s_from, arrive);
            if (ves.away)
                slots.release(ves.node, ves.slot, arrive);
            vessel_slot = s_to;
        }
        ves.away = true;
        ves.node = blk.remote_node;
        ves.slot = vessel_slot;
        mark_away(blk.hub);
        qready[static_cast<std::size_t>(blk.hub)] = arrive;

        std::size_t cursor = bodies.off[b];
        const double channel =
            run_body_slice(blk, cursor, bodies.off[b + 1],
                           static_cast<std::size_t>(-1), arrive);
        qready[static_cast<std::size_t>(blk.hub)] = channel;
        bump(channel);

        if (fuse_next[b]) {
            ++res.fused_links;
            // Vessel stays put (its comm slot remains reserved); the
            // hub's next TP block teleports it onward — unless a
            // conflicting route evicts it first (see close_vessel).
            ves.fused_pending = true;
            pinned[static_cast<std::size_t>(blk.hub)] = 0;
            return;
        }

        // Teleport home (releases the dirty side-effect, 2nd EPR pair).
        auto [epr_done, s_from, s_home] =
            prepare_epr_from(blk.remote_node, blk.hub_node, channel,
                             blk.hub);
        const double t_start = std::max(epr_done, channel);
        const double home = t_start + t_tele;
        ++res.teleports;
        slots.release(blk.remote_node, s_from, home);
        slots.release(blk.remote_node, ves.slot, home);
        slots.release(blk.hub_node, s_home, home);
        qready[static_cast<std::size_t>(blk.hub)] = home;
        ves = Vessel{};
        mark_home(blk.hub);
        pinned[static_cast<std::size_t>(blk.hub)] = 0;
        bump(home);
    }

    ScheduleResult
    run()
    {
        build_bodies_and_units();
        plan_tp_fusion();
        for (const Unit& u : units) {
            if (!u.is_block) {
                const Gate& g = reordered[u.index];
                if (g.kind == GateKind::Barrier)
                    continue;
                run_gate_local(g);
                continue;
            }
            schedule_block(u.index);
        }
        flush_pair_batch();
        res.makespan = makespan;
        return std::move(res);
    }
};

} // namespace

ScheduleResult
schedule_program(const qir::Circuit& reordered,
                 const std::vector<CommBlock>& blocks,
                 const std::vector<std::size_t>& block_start,
                 const hw::QubitMapping& map, const hw::Machine& m,
                 const ScheduleOptions& opts)
{
    Scheduler s(reordered, blocks, block_start, map, m, opts);
    return s.run();
}

} // namespace autocomm::pass
