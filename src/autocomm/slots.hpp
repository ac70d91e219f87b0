/**
 * @file
 * Schedulable communication resources shared by the AutoComm scheduler
 * and the baseline latency simulators:
 *
 *  - SlotPool: each node owns a fixed number of communication qubits; an
 *    EPR pair reserves one slot on each end (and, on multi-hop routes,
 *    two slots at every intermediate swap router) until released;
 *  - LinkPool: each physical link runs at most `bandwidth` elementary
 *    EPR preparations concurrently; a preparation batch reserves
 *    min(2^rounds, bandwidth) channels on every link of its route.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "obs/decision.hpp"
#include "qir/types.hpp"

namespace autocomm::pass {

/** Entries in a dense table over the unordered node pairs of a
 * @p num_nodes-node machine (the lo < hi triangle). */
inline std::size_t
pair_count(int num_nodes)
{
    const auto n = static_cast<std::size_t>(num_nodes);
    return n * (n - 1) / 2;
}

/** Index of the unordered pair {a, b}, a != b, in that table:
 * hi * (hi - 1) / 2 + lo. Pairs run by hi, then lo. */
inline std::size_t
pair_index(NodeId a, NodeId b)
{
    assert(a != b && "a node pair needs two distinct nodes");
    const auto lo = static_cast<std::size_t>(std::min(a, b));
    const auto hi = static_cast<std::size_t>(std::max(a, b));
    return hi * (hi - 1) / 2 + lo;
}

/**
 * The k-th smallest of the free times @p v (non-empty; k clamped to
 * [1, v.size()]). The schedulers ask for k <= 2 on nearly every call, so
 * those are single scans; a larger k partially sorts a copy in
 * @p scratch, which the caller keeps and reuses so the query does not
 * allocate.
 */
inline double
kth_smallest(std::span<const double> v, int k, std::vector<double>& scratch)
{
    const std::size_t kth =
        std::min(static_cast<std::size_t>(std::max(k, 1)), v.size());
    if (kth == 1)
        return *std::min_element(v.begin(), v.end());
    if (kth == 2) {
        double m1 = std::numeric_limits<double>::infinity();
        double m2 = m1;
        for (const double t : v) {
            if (t < m1) {
                m2 = m1;
                m1 = t;
            } else if (t < m2) {
                m2 = t;
            }
        }
        return m2;
    }
    scratch.assign(v.begin(), v.end());
    const auto it = scratch.begin() + static_cast<std::ptrdiff_t>(kth - 1);
    std::nth_element(scratch.begin(), it, scratch.end());
    return *it;
}

/** Per-node communication-qubit slot pool with reservation semantics. */
class SlotPool
{
  public:
    SlotPool(int num_nodes, int slots_per_node)
        : free_(static_cast<std::size_t>(num_nodes),
                std::vector<double>(static_cast<std::size_t>(slots_per_node),
                                    0.0))
    {
    }

    /** Earliest time a slot on @p node becomes free. */
    double
    earliest(NodeId node) const
    {
        const auto& v = free_[static_cast<std::size_t>(node)];
        return *std::min_element(v.begin(), v.end());
    }

    /** Earliest time @p k slots on @p node are simultaneously free (the
     * k-th smallest free time; k is clamped to the pool size). */
    double
    earliest_k(NodeId node, int k) const
    {
        const auto& v = free_[static_cast<std::size_t>(node)];
        std::vector<double> scratch; // filled only when k > 2
        return kth_smallest(v, k, scratch);
    }

    /**
     * Acquire the earliest slot on @p node, no sooner than @p t_min.
     * The slot is reserved (unavailable) until the caller release()s it
     * with the final busy-until time. Returns {slot index, start time}.
     */
    std::pair<int, double>
    acquire(NodeId node, double t_min)
    {
        auto& v = free_[static_cast<std::size_t>(node)];
        const auto it = std::min_element(v.begin(), v.end());
        const double t = std::max(*it, t_min);
        *it = std::numeric_limits<double>::infinity();
        return {static_cast<int>(it - v.begin()), t};
    }

    /** End a reservation: the slot becomes free at @p until. */
    void
    release(NodeId node, int slot, double until)
    {
        free_[static_cast<std::size_t>(node)]
             [static_cast<std::size_t>(slot)] = until;
    }

    /**
     * Acquire two slots, no sooner than @p t_min, at every intermediate
     * swap router of @p route (route order). Returns the latest start
     * time granted. The slot ids are held in a buffer the pool reuses
     * until release_routers(), so multi-hop routes do not allocate.
     */
    double
    acquire_routers(const std::vector<NodeId>& route, double t_min)
    {
        router_slots_.clear();
        double begin = t_min;
        for (std::size_t i = 1; i + 1 < route.size(); ++i) {
            const auto [r1, u1] = acquire(route[i], t_min);
            const auto [r2, u2] = acquire(route[i], t_min);
            begin = std::max({begin, u1, u2});
            router_slots_.push_back(r1);
            router_slots_.push_back(r2);
        }
        return begin;
    }

    /** End the reservations of the last acquire_routers() on the same
     * @p route: every router slot frees up at @p until. */
    void
    release_routers(const std::vector<NodeId>& route, double until)
    {
        for (std::size_t i = 1; i + 1 < route.size(); ++i) {
            release(route[i], router_slots_[2 * (i - 1)], until);
            release(route[i], router_slots_[2 * (i - 1) + 1], until);
        }
    }

  private:
    std::vector<std::vector<double>> free_;
    std::vector<int> router_slots_;
};

/**
 * Per-physical-link EPR-preparation channel pool. Each link owns as many
 * channels as its bandwidth (the machine's uniform `LinkModel::bandwidth`
 * unless the link carries an override); an elementary preparation
 * occupies one channel for its duration. A bandwidth of 0 means
 * unlimited — every query on that link returns "free now" and
 * acquisition is a no-op, reproducing the paper's contention-free links
 * exactly.
 *
 * Each link's bandwidth is looked up in the model once, on first use,
 * and its channel free times live at an offset in one flat array. The
 * per-link entries form a dense table over the node pairs lo < hi: 8
 * bytes per pair, half of what the machine's routing table spends.
 */
class LinkPool
{
  public:
    /** @p link must outlive the pool (both simulators pass the machine's
     * own model); @p num_nodes is the machine's node count. */
    LinkPool(const noise::LinkModel& link, int num_nodes)
        : link_(&link), unlimited_(link.unlimited_bandwidth())
    {
        if (!unlimited_)
            links_.resize(pair_count(num_nodes));
    }

    /** True when no link constrains preparations at all. */
    bool unlimited() const { return unlimited_; }

    /** Earliest time @p k channels of link (a, b) are simultaneously
     * free; 0 when the link is unlimited. @p k is clamped to the link's
     * bandwidth. */
    double
    earliest_k(NodeId a, NodeId b, int k)
    {
        const std::span<double> v = channels(a, b);
        return v.empty() ? 0.0 : kth_smallest(v, k, scratch_);
    }

    /**
     * Reserve @p k channels (clamped to the link's bandwidth) on link
     * (a, b) until the matching release(). No-op on unlimited links.
     */
    void
    acquire(NodeId a, NodeId b, int k)
    {
        const std::span<double> v = channels(a, b);
        const std::size_t n =
            std::min(static_cast<std::size_t>(std::max(k, 0)), v.size());
        for (std::size_t i = 0; i < n; ++i)
            *std::min_element(v.begin(), v.end()) =
                std::numeric_limits<double>::infinity();
    }

    /** End a reservation of @p k channels: they free up at @p until. */
    void
    release(NodeId a, NodeId b, int k, double until)
    {
        const std::span<double> v = channels(a, b);
        std::size_t remaining =
            std::min(static_cast<std::size_t>(std::max(k, 0)), v.size());
        for (double& t : v) {
            if (remaining == 0)
                break;
            if (t == std::numeric_limits<double>::infinity()) {
                t = until;
                --remaining;
            }
        }
    }

  private:
    /** One link's bandwidth (-1 until first use) and the offset of its
     * channels in free_. */
    struct Link
    {
        std::int32_t bandwidth = -1;
        std::uint32_t offset = 0;
    };

    /** The channel free times of link (a, b), a != b; empty when the
     * link is unlimited. Valid until the next call adds a link to
     * free_. */
    std::span<double>
    channels(NodeId a, NodeId b)
    {
        if (unlimited_)
            return {};
        Link& l = links_[pair_index(a, b)];
        if (l.bandwidth < 0) {
            l.bandwidth = std::max(link_->link_bandwidth(a, b), 0);
            l.offset = static_cast<std::uint32_t>(free_.size());
            free_.resize(free_.size() +
                             static_cast<std::size_t>(l.bandwidth),
                         0.0);
        }
        return {free_.data() + l.offset,
                static_cast<std::size_t>(l.bandwidth)};
    }

    const noise::LinkModel* link_;
    bool unlimited_;
    std::vector<Link> links_; ///< indexed by pair_index
    std::vector<double> free_;
    std::vector<double> scratch_;
};

/**
 * Everything a latency simulator needs to know about preparing one
 * purified EPR pair between a node pair, precomputed from the machine:
 * the swap route, purification depth, raw-pair cost, channel demand per
 * link segment, total preparation latency, and the delivered fidelity.
 */
struct EprPairPlan
{
    std::vector<NodeId> route; ///< a .. b inclusive (normalized a < b)
    int hops = 1;
    int rounds = 0;
    std::size_t raw = 1; ///< elementary pairs per link segment (2^rounds)
    int chan = 1;        ///< LinkPool channel demand (raw, int-clamped)
    double duration = 0.0;
    double fidelity = 1.0; ///< post-purification end-to-end fidelity
};

/**
 * Per-machine memoization of EprPairPlan, keyed on the normalized node
 * pair — both directions share one route and its resources. Shared by
 * the AutoComm scheduler and the GP-TP baseline so the two simulators
 * can never diverge in how they cost a pair. A 4-byte slot per node pair
 * (see pair_index) points into the plans built so far. Their vector is
 * reserved for every pair up front, so it never reallocates: a returned
 * reference stays valid while later pairs are built (the scheduler holds
 * one across an eviction that prepares other pairs).
 */
class EprPlanCache
{
  public:
    /** With @p note_decisions, every newly built plan records a
     * `schedule.purify` decision (rounds chosen vs the machine's
     * target) — once per distinct pair thanks to the memo, so event
     * volume stays proportional to node pairs, not EPR count. The
     * scheduler opts in; the GP-TP baseline shares the plan math but
     * keeps the default and stays silent (no double counting). */
    explicit EprPlanCache(const hw::Machine& m,
                          bool note_decisions = false)
        : note_(note_decisions), m_(&m), slot_(pair_count(m.num_nodes), 0)
    {
        plans_.reserve(slot_.size());
    }

    const EprPairPlan&
    plan(NodeId a, NodeId b)
    {
        std::uint32_t& slot = slot_[pair_index(a, b)];
        if (slot == 0) {
            plans_.push_back(build(std::min(a, b), std::max(a, b)));
            slot = static_cast<std::uint32_t>(plans_.size());
            note_purify(plans_.back());
        }
        return plans_[slot - 1];
    }

    /**
     * Cost an explicit (detour) route instead of the routing table's
     * choice — used when the minimal route is blocked by a parked
     * teleport vessel that cannot be evicted. Not memoized: detours
     * depend on transient slot state, not just the endpoint pair.
     */
    EprPairPlan
    plan_for_route(std::vector<NodeId> route) const
    {
        EprPairPlan p;
        p.hops = static_cast<int>(route.size()) - 1;
        const double f = m_->route_fidelity(route);
        p.rounds = m_->purify.rounds_for(f);
        p.raw = noise::PurificationPolicy::cost_multiplier(p.rounds);
        p.chan =
            static_cast<int>(std::min<std::size_t>(p.raw, 1u << 30));
        p.duration = m_->route_epr_latency(route);
        p.fidelity = noise::purified_fidelity(f, p.rounds);
        p.route = std::move(route);
        note_purify(p);
        return p;
    }

  private:
    /** Purification-depth decision for a freshly built plan: how many
     * rounds the policy chose for this pair/route, and the fidelity it
     * delivers against the machine's target. */
    void
    note_purify(const EprPairPlan& p) const
    {
        if (!note_ || !obs::enabled() || p.route.empty())
            return;
        obs::decision("schedule.purify",
                      p.rounds > 0 ? "purified" : "raw",
                      obs::arg("a", p.route.front()),
                      obs::arg("b", p.route.back()),
                      obs::arg("hops", p.hops),
                      obs::arg("rounds", p.rounds),
                      obs::arg("raw_pairs", p.raw),
                      obs::arg("fidelity", p.fidelity),
                      obs::arg("target", m_->purify.target_fidelity));
    }

    bool note_ = false;

    EprPairPlan
    build(NodeId a, NodeId b) const
    {
        EprPairPlan p;
        p.route = m_->path(a, b);
        p.hops = static_cast<int>(p.route.size()) - 1;
        p.rounds = m_->purification_rounds(a, b);
        p.raw = noise::PurificationPolicy::cost_multiplier(p.rounds);
        p.chan =
            static_cast<int>(std::min<std::size_t>(p.raw, 1u << 30));
        p.duration = m_->epr_latency(a, b);
        p.fidelity = m_->purified_pair_fidelity(a, b);
        return p;
    }

    const hw::Machine* m_;
    /** Per pair: 1 + the plan's index in plans_, or 0 until built. */
    std::vector<std::uint32_t> slot_;
    std::vector<EprPairPlan> plans_;
};

/** Outcome of reserving the resources of one EPR preparation. */
struct EprReservation
{
    int slot_a = -1;   ///< Endpoint slot on route.front() (caller frees).
    int slot_b = -1;   ///< Endpoint slot on route.back() (caller frees).
    double done = 0.0; ///< Preparation completion time.
};

/**
 * Reserve everything one (purified) EPR preparation along @p route
 * needs, starting no sooner than @p t_min: one comm slot on each
 * endpoint, two comm slots at every intermediate swap router, and
 * @p chan preparation channels on every link segment. Router slots and
 * link channels are released when the preparation completes (after
 * @p duration); the endpoint slots stay reserved for the consuming
 * protocol, which must release them.
 *
 * This is the single resource model shared by the AutoComm scheduler
 * and the GP-TP baseline, so their makespans stay comparable on noisy,
 * bandwidth-capped, multi-hop machines.
 */
inline EprReservation
reserve_epr_route(SlotPool& slots, LinkPool& links,
                  const std::vector<NodeId>& route, int chan,
                  double duration, double t_min)
{
    const NodeId a = route.front();
    const NodeId b = route.back();

    // Find the earliest instant every resource is available.
    double start = std::max({slots.earliest(a), slots.earliest(b), t_min});
    for (std::size_t i = 1; i + 1 < route.size(); ++i)
        start = std::max(start, slots.earliest_k(route[i], 2));
    if (!links.unlimited())
        for (std::size_t i = 0; i + 1 < route.size(); ++i)
            start = std::max(
                start, links.earliest_k(route[i], route[i + 1], chan));

    EprReservation res;
    auto [sa, ta] = slots.acquire(a, start);
    auto [sb, tb] = slots.acquire(b, start);
    res.slot_a = sa;
    res.slot_b = sb;
    const double begin =
        std::max({ta, tb, slots.acquire_routers(route, start)});
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
        links.acquire(route[i], route[i + 1], chan);

    res.done = begin + duration;
    slots.release_routers(route, res.done);
    for (std::size_t i = 0; i + 1 < route.size(); ++i)
        links.release(route[i], route[i + 1], chan, res.done);
    return res;
}

} // namespace autocomm::pass
