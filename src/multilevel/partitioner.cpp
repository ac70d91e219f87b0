#include "multilevel/partitioner.hpp"

#include <algorithm>
#include <numeric>

#include "multilevel/initial.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace autocomm::multilevel {

std::vector<NodeId>
multilevel_partition(const partition::InteractionGraph& g,
                     const std::vector<int>& capacities,
                     const CostModel& cost, const MultilevelOptions& opts)
{
    const int n = g.num_qubits();
    const int k = static_cast<int>(capacities.size());
    if (k <= 0)
        support::fatal("multilevel_partition: no node capacities");
    if (static_cast<int>(cost.num_nodes()) != k)
        support::fatal("multilevel_partition: cost model covers %d nodes, "
                       "machine has %d", cost.num_nodes(), k);
    const long total_cap =
        std::accumulate(capacities.begin(), capacities.end(), 0L);
    if (total_cap < n)
        support::fatal("multilevel_partition: %d qubits exceed the "
                       "machine's total capacity %ld", n, total_cap);

    if (k == 1 || n <= 1)
        return std::vector<NodeId>(static_cast<std::size_t>(n), 0);

    // ---- Coarsen ----
    obs::Span coarsen_span("coarsen");
    CoarsenOptions copts;
    copts.target_vertices = std::max(copts.target_vertices, 4 * k);
    // A coarse vertex must fit on some node; capping at the smallest
    // capacity keeps every vertex placeable on every node, which is what
    // lets initial_partition honor heterogeneous shapes.
    copts.max_vertex_weight =
        std::max(1, *std::min_element(capacities.begin(),
                                      capacities.end()));
    const std::vector<CoarseLevel> levels = coarsen(g, copts);
    coarsen_span.finish();

    const partition::InteractionGraph& coarsest =
        levels.empty() ? g : levels.back().graph;
    const std::vector<int> unit_weights(
        static_cast<std::size_t>(g.num_qubits()), 1);
    const std::vector<int>& coarsest_weights =
        levels.empty() ? unit_weights : levels.back().vertex_weight;

    // ---- Initial partition ----
    obs::Span initial_span("initial");
    std::vector<NodeId> part = initial_partition(
        coarsest, coarsest_weights, capacities, cost);
    initial_span.finish();

    // ---- Uncoarsen + refine ----
    obs::Span refine_span("refine");
    RefineOptions ropts;
    ropts.pool = opts.pool;
    for (std::size_t li = levels.size();; --li) {
        const partition::InteractionGraph& cur =
            li == 0 ? g : levels[li - 1].graph;
        const std::vector<int>& vw =
            li == 0 ? unit_weights : levels[li - 1].vertex_weight;
        rebalance(cur, vw, capacities, cost, part);
        refine(cur, vw, capacities, cost, part, ropts);
        if (li == 0)
            break;
        // Project onto the next finer level: each fine vertex inherits
        // its coarse vertex's node.
        const std::vector<QubitId>& map = levels[li - 1].fine_to_coarse;
        std::vector<NodeId> finer(map.size());
        for (std::size_t v = 0; v < map.size(); ++v)
            finer[v] = part[static_cast<std::size_t>(map[v])];
        part = std::move(finer);
    }
    refine_span.finish();

    // Level-0 rebalance always succeeds when total capacity suffices
    // (checked above), so the result is feasible by construction; guard
    // against regressions anyway.
    std::vector<long> load(static_cast<std::size_t>(k), 0);
    for (int v = 0; v < n; ++v)
        load[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])]++;
    for (NodeId p = 0; p < k; ++p)
        if (load[static_cast<std::size_t>(p)] >
            capacities[static_cast<std::size_t>(p)])
            support::fatal("multilevel_partition: internal error: node %d "
                           "over capacity (%ld > %d)", p,
                           load[static_cast<std::size_t>(p)],
                           capacities[static_cast<std::size_t>(p)]);
    return part;
}

std::vector<NodeId>
multilevel_partition(const partition::InteractionGraph& g,
                     const hw::Machine& m, const MultilevelOptions& opts)
{
    return multilevel_partition(g, m.capacities(),
                                CostModel::from_machine(m), opts);
}

} // namespace autocomm::multilevel
