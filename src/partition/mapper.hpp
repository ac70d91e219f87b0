/**
 * @file
 * The partitioner registry: every qubit-to-node mapping strategy the
 * sweep driver and CLIs can select by name, behind one dispatch point.
 *
 * - `oee`             the paper's Static Overall Extreme Exchange
 *                     exchange heuristic (oee.hpp) — the default, and
 *                     the strategy every pre-existing CSV was produced
 *                     under;
 * - `multilevel`      the METIS-style coarsen/initial/refine pipeline
 *                     (multilevel/partitioner.hpp) whose objective is
 *                     the machine's hop/fidelity-weighted cut;
 * - `multilevel+oee`  multilevel's partition used to seed a short OEE
 *                     polish — multilevel's speed and topology
 *                     awareness with OEE's flat-cut endgame.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "multilevel/partitioner.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/oee.hpp"

namespace autocomm::partition {

/** Selectable qubit-partitioning strategy. */
enum class Mapper : std::uint8_t {
    Oee,           ///< paper default; flat-cut exchange heuristic
    Multilevel,    ///< coarsen -> initial -> topology-aware FM refine
    MultilevelOee, ///< multilevel cut seeding a short OEE polish
};

/** Lowercase mapper mnemonic ("oee", "multilevel", "multilevel+oee"). */
const char* mapper_name(Mapper m);

/** Inverse of mapper_name (case-insensitive); nullopt when unknown. */
std::optional<Mapper> parse_mapper(const std::string& name);

/** All mappers, the paper default first. */
std::vector<Mapper> all_mappers();

/** Per-strategy knobs for partition_with. */
struct MapperOptions
{
    OeeOptions oee{};
    /** The +oee polish budget: a few passes, not a full OEE run. */
    OeeOptions polish{/*max_passes=*/4};
};

/**
 * Partition @p g onto @p m with strategy @p mapper. All strategies honor
 * per-node capacities and throw support::UserError when the register
 * does not fit the machine. Only Multilevel/MultilevelOee read the
 * machine's topology and link fidelities; Oee sees capacities alone.
 */
std::vector<NodeId> partition_with(Mapper mapper, const InteractionGraph& g,
                                   const hw::Machine& m,
                                   const MapperOptions& opts = {});

/** Same, wrapped as a QubitMapping. */
hw::QubitMapping map_with(Mapper mapper, const InteractionGraph& g,
                          const hw::Machine& m,
                          const MapperOptions& opts = {});

} // namespace autocomm::partition
