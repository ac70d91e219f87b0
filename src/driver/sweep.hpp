/**
 * @file
 * The compilation sweep driver: run pass::compile over a declarative grid
 * of (circuit family x qubit count x node count x compile options) cells
 * on a thread pool, collecting one deterministic metrics row per cell.
 *
 * Rows come back in cell order regardless of thread count, so a sweep's
 * CSV is byte-identical between single-threaded and parallel runs — the
 * property tests and `bench_sweep --verify` rely on this.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "autocomm/pipeline.hpp"
#include "baseline/ferrari.hpp"
#include "circuits/library.hpp"
#include "partition/mapper.hpp"
#include "support/csv.hpp"

namespace autocomm::cache {
class ResultStore;
} // namespace autocomm::cache

namespace autocomm::driver {

/**
 * One per-link value override, nodes normalized a < b (the "0-1:0.92"
 * spec element). Bandwidth overrides store a non-negative integer in
 * `value`.
 */
struct LinkValue
{
    int a = 0;
    int b = 0;
    double value = 0.0;

    friend bool operator==(const LinkValue&, const LinkValue&) = default;
};

/** Canonical "0-1:0.92,1-2:2" form of an override list ("" when empty).
 * Overrides are kept sorted by (a, b), so the spec — and everything
 * derived from it (cell labels, CSV columns, cache keys) — is
 * independent of the order the user wrote them in. */
std::string override_spec(const std::vector<LinkValue>& overrides);

/** A named pass::CompileOptions configuration (one ablation arm). */
struct OptionSet
{
    std::string name = "default";
    pass::CompileOptions opts{};
};

/**
 * The built-in named option sets: "default" plus the paper's Fig. 17
 * ablation arms ("sparse", "catonly", "noprefetch", "nofusion").
 */
std::vector<OptionSet> builtin_option_sets();

/** Look up one built-in option set by name. */
std::optional<OptionSet> find_option_set(const std::string& name);

/** One (circuit, machine, options) point of a sweep. */
struct SweepCell
{
    circuits::BenchmarkSpec spec{};
    OptionSet options{};
    std::uint64_t seed = 2022;
    /**
     * Machine-shape spec ("4x10,2x30", see hw::parse_shape); empty means
     * the classic homogeneous machine with spec.num_nodes nodes of
     * ceil(qubits/nodes) data qubits each. When set, its node count must
     * equal spec.num_nodes.
     */
    std::string shape;
    /** Quantum-link topology of the machine. */
    hw::Topology topology = hw::Topology::AllToAll;
    /** Raw EPR fidelity of every physical link (1.0 = perfect). */
    double link_fidelity = 1.0;
    /** Required post-purification end-to-end fidelity; 0 disables
     * purification (see noise::PurificationPolicy). */
    double target_fidelity = 0.0;
    /** Max concurrent elementary EPR preparations per link; 0 means
     * unlimited (the paper's contention-free links). */
    int link_bandwidth = 0;
    /** Per-link raw-fidelity overrides (degraded fibers), sorted (a, b);
     * non-empty overrides switch routing to fidelity-aware Dijkstra. */
    std::vector<LinkValue> link_fidelity_overrides;
    /** Per-link bandwidth overrides (0 = unlimited), sorted (a, b). */
    std::vector<LinkValue> link_bandwidth_overrides;
    /** Qubit-partitioning strategy (see partition::Mapper); OEE is the
     * paper default and the strategy behind every pre-existing CSV. */
    partition::Mapper partitioner = partition::Mapper::Oee;
    /** Also run the Ferrari per-CX baseline and record relative factors. */
    bool with_baseline = false;
    /** Also run the GP-TP baseline (Fig. 16) and record its factors. */
    bool with_gptp = false;
    /** Only prepare and count (Table 2 columns); skip pass::compile. */
    bool stats_only = false;

    /** "QFT-100-10/default"-style row label; non-default shapes,
     * topologies, and noise settings append "@shape" / "+topology" /
     * "~f.../~t.../~b...", per-link overrides "~F(...)"/"~B(...)", and
     * non-OEE partitioners "!multilevel" after the option-set name. */
    std::string label() const;

    /** The CSV "options" column: the option-set name, with
     * "!<partitioner>" appended for non-OEE partitioners — so
     * `--partitioner oee` rows stay byte-identical to pre-partitioner
     * CSVs while multilevel rows remain distinguishable. */
    std::string options_label() const;
};

/**
 * The per-node data-qubit capacities of @p cell's machine: its shape's,
 * or spec.num_nodes nodes of ceil(qubits / nodes). Throws
 * support::UserError on a non-positive count or a shape whose node count
 * is not spec.num_nodes.
 */
std::vector<int> machine_capacities(const SweepCell& cell);

/**
 * The machine of @p cell: its capacities, topology and link noise, with
 * every per-link override checked to name a physical link. Non-empty
 * fidelity overrides reroute by fidelity-aware Dijkstra.
 */
hw::Machine machine_for(const SweepCell& cell);

/**
 * Exact serialization of the machine half of @p cell, the fragment
 * "shape=..;topology=..;link_fidelity=..;target_fidelity=..;
 * link_bandwidth=..;fidelity_overrides=..;bandwidth_overrides=.." of
 * cache::cell_key. Values print as %.17g: override_spec's %g display
 * form is not injective. run_sweep groups machine-dependent work by it.
 */
std::string machine_key(const SweepCell& cell);

/** Declarative cartesian sweep grid. */
struct SweepGrid
{
    /** Family axis: generator families and/or external QASM files (see
     * circuits::FamilySpec — QASM entries pin their own qubit count, so
     * they expand once per machine point rather than once per
     * qubit-axis value). */
    std::vector<circuits::FamilySpec> families;
    std::vector<int> qubit_counts;
    std::vector<int> node_counts;
    /**
     * Machine-shape axis. When non-empty it replaces node_counts: each
     * entry is a hw::parse_shape spec and the cell's node count is the
     * shape's node count.
     */
    std::vector<std::string> shapes;
    /** Link-topology axis (between the machine and option-set axes). */
    std::vector<hw::Topology> topologies{hw::Topology::AllToAll};
    /** Raw link-fidelity axis (noise off at 1.0). */
    std::vector<double> link_fidelities{1.0};
    /** Purification-target axis (purification off at 0.0). */
    std::vector<double> target_fidelities{0.0};
    /** Link-bandwidth axis (unlimited at 0). */
    std::vector<int> link_bandwidths{0};
    /** Per-link fidelity overrides applied to every cell (not an axis). */
    std::vector<LinkValue> link_fidelity_overrides;
    /** Per-link bandwidth overrides applied to every cell (not an axis). */
    std::vector<LinkValue> link_bandwidth_overrides;
    /** Partitioner axis (between the noise and option-set axes). */
    std::vector<partition::Mapper> partitioners{partition::Mapper::Oee};
    std::vector<OptionSet> option_sets{OptionSet{}};
    std::uint64_t seed = 2022;
    bool with_baseline = false;

    /** Expand to the cartesian product, in deterministic row-major order
     * (family outermost, option set innermost). */
    std::vector<SweepCell> cells() const;
};

/** Wrap explicit benchmark specs (e.g. the paper suite) as sweep cells. */
std::vector<SweepCell> cells_from_specs(
    const std::vector<circuits::BenchmarkSpec>& specs,
    const OptionSet& options = {}, std::uint64_t seed = 2022,
    bool with_baseline = false, bool stats_only = false,
    bool with_gptp = false);

/** Metrics row for one compiled cell (Table 2 + Table 3 columns). */
struct SweepRow
{
    SweepCell cell{};
    bool ok = false;
    std::string error; ///< exception text when !ok

    qir::CircuitStats stats{};      ///< decomposed-circuit statistics
    std::size_t remote_cx = 0;      ///< remote CX under the OEE mapping
    pass::Metrics metrics{};        ///< AutoComm communication metrics
    pass::ScheduleResult schedule{};///< latency simulation outcome
    /** Ferrari-relative factors, when cell.with_baseline. */
    std::optional<baseline::RelativeFactors> factors;
    /** GP-TP-relative factors, when cell.with_gptp (Fig. 16). */
    std::optional<baseline::RelativeFactors> gptp_factors;

    /** Wall-clock time of the cell's own work: machine derivation,
     * schedule, and GP-TP. Shared work (decompose, graph, partition,
     * aggregation, assign/reorder) and the Ferrari baseline are
     * excluded; run_cell's figure adds its aggregation and layout. Kept
     * out of sweep_csv() so CSV output stays run-to-run deterministic. */
    double compile_seconds = 0.0;
};

/** Knobs for run_sweep. */
struct SweepOptions
{
    /** Worker threads; 0 selects support::default_thread_count(). */
    std::size_t num_threads = 0;
    /**
     * Persistent sweep-result cache (see cache::ResultStore): consulted
     * before compiling each cell — full hits skip preparation and
     * compilation entirely — and updated with every newly compiled row
     * but a transient (non-UserError) failure's. The caller owns the
     * store (and its flush()); may be null.
     */
    cache::ResultStore* store = nullptr;
};

/**
 * Compile one cell from scratch: generate + decompose the circuit,
 * derive the machine (ceil-divided qubits per node, or the cell's shape
 * with per-node capacities, plus topology and link noise), map with the
 * cell's partitioner (OEE by default), validate, then run the pipeline
 * and, when asked, the GP-TP baseline and then the Ferrari baseline.
 */
SweepRow run_cell(const SweepCell& cell);

/**
 * Compile every cell on a thread pool. Rows are returned in cell order
 * and are independent of opts.num_threads. A cell whose compilation
 * throws yields a row with ok == false and the exception text in
 * `error`; run_sweep itself throws only on a bug (an exception that
 * escaped a stage's own handler).
 *
 * Work shared between cells runs once, as a stage pipeline with no
 * barriers over a tree: program (generate, decompose, interaction graph)
 * -> mapping (partition) -> aggregation per (mapping, AggregateOptions)
 * -> layout (assign, count, reorder) per (aggregation, AssignOptions) ->
 * the cells, which build their machine and schedule. Under OEE the
 * option-set, topology, and noise axes re-partition nothing; the
 * default/catonly/noprefetch/nofusion arms share one aggregation, and
 * default/noprefetch/nofusion one layout. The Ferrari baseline is an
 * internal cell per (program, partitioner, machine) that shares the
 * sparse arm's aggregation and layout; its row, never returned or
 * stored, sets its cells' factors. Rows and error text are a run_cell
 * per cell's: a stage's error is rethrown where run_cell would throw it
 * (a program's or mapping's before the cell's own work, an
 * aggregation's or layout's after the cell's machine checks, the
 * baseline's after the cell's compile), except that an OEE mapping is
 * built without the machine, so its error precedes the machine's
 * override checks. Only deterministic (support::UserError) error rows
 * enter opts.store. Cells served from opts.store skip every stage.
 */
std::vector<SweepRow> run_sweep(const std::vector<SweepCell>& cells,
                                const SweepOptions& opts = {});

/** Serialize rows as a CSV document (deterministic columns only). */
support::CsvWriter sweep_csv(const std::vector<SweepRow>& rows);

// ---- CLI parsing (shared by the bench CLIs) ----
// Every parser throws support::UserError with the offending token echoed
// and the flag named, so CLI errors read like
//   --topology: unknown topology "torus" (expected all_to_all, ring,
//   grid, or star)

/** Parse a comma list of integers in [min_value, max_value]. */
std::vector<int> parse_int_list(const std::string& list, const char* flag,
                                long min_value = 1,
                                long max_value = 1'000'000);

/**
 * Parse a comma list of fidelities in (0, 1]. When @p zero_disables, a
 * literal 0 is additionally allowed (the "noise/purification off" axis
 * point).
 */
std::vector<double> parse_fidelity_list(const std::string& list,
                                        const char* flag,
                                        bool zero_disables = false);

/** Parse a comma list of topology names. */
std::vector<hw::Topology> parse_topology_list(const std::string& list,
                                              const char* flag);

/** Parse a comma list of family tokens: generator family names plus
 * "qasm:<path>" / "qasmdir:<dir>" external-circuit sources (the latter
 * expands to one entry per .qasm file, sorted by name). */
std::vector<circuits::FamilySpec>
parse_family_list(const std::string& list, const char* flag);

/** Parse a comma list of partitioner names (see partition::Mapper). */
std::vector<partition::Mapper> parse_mapper_list(const std::string& list,
                                                 const char* flag);

/** Parse a ';'-separated list of machine-shape specs (validated). */
std::vector<std::string> parse_shape_list(const std::string& list,
                                          const char* flag);

/**
 * Parse a comma list of per-link override specs "a-b:value" (e.g.
 * "0-1:0.92,2-3:0.85"). Nodes are non-negative and distinct; duplicate
 * links (in either order) are rejected; the result is sorted by
 * normalized (a, b). When @p integer_value, values must be integers in
 * [0, 1e6] (bandwidths, 0 = unlimited); otherwise fidelities in
 * (0.25, 1].
 */
std::vector<LinkValue> parse_override_list(const std::string& list,
                                           const char* flag,
                                           bool integer_value);

/** A deterministic 1-of-N selection of a sweep grid ("0/2"). */
struct ShardSpec
{
    int index = 0;
    int count = 1;
};

/** Parse an "i/N" shard spec with 0 <= i < N <= INT_MAX (so "0/0",
 * "3/2" and "0/4294967298" are rejected with the offending spec
 * echoed). */
ShardSpec parse_shard(const std::string& spec, const char* flag);

/** Parse a worker-thread count in [1, support::kMaxThreads]. */
std::size_t parse_threads(const std::string& value, const char* flag);

} // namespace autocomm::driver
