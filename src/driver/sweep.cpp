#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "baseline/gptp.hpp"
#include "cache/key.hpp"
#include "circuits/qasm_source.hpp"
#include "cache/store.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "support/log.hpp"
#include "support/threadpool.hpp"

namespace autocomm::driver {

std::vector<OptionSet>
builtin_option_sets()
{
    std::vector<OptionSet> sets;
    sets.push_back({"default", {}});

    OptionSet sparse{"sparse", {}};
    sparse.opts.aggregate.use_commutation = false;
    sets.push_back(sparse);

    OptionSet catonly{"catonly", {}};
    catonly.opts.assign.allow_tp = false;
    sets.push_back(catonly);

    OptionSet noprefetch{"noprefetch", {}};
    noprefetch.opts.schedule.epr_prefetch = false;
    sets.push_back(noprefetch);

    OptionSet nofusion{"nofusion", {}};
    nofusion.opts.schedule.tp_fusion = false;
    sets.push_back(nofusion);
    return sets;
}

std::optional<OptionSet>
find_option_set(const std::string& name)
{
    for (OptionSet& s : builtin_option_sets())
        if (s.name == name)
            return std::move(s);
    return std::nullopt;
}

std::string
SweepCell::label() const
{
    std::string out = spec.label();
    if (!shape.empty())
        out += "@" + shape;
    if (topology != hw::Topology::AllToAll)
        out += std::string("+") + hw::topology_name(topology);
    if (link_fidelity != 1.0)
        out += support::strprintf("~f%g", link_fidelity);
    if (target_fidelity > 0.0)
        out += support::strprintf("~t%g", target_fidelity);
    if (link_bandwidth > 0)
        out += support::strprintf("~b%d", link_bandwidth);
    if (!link_fidelity_overrides.empty())
        out += "~F(" + override_spec(link_fidelity_overrides) + ")";
    if (!link_bandwidth_overrides.empty())
        out += "~B(" + override_spec(link_bandwidth_overrides) + ")";
    return out + "/" + options_label();
}

std::string
SweepCell::options_label() const
{
    if (partitioner == partition::Mapper::Oee)
        return options.name;
    return options.name + "!" + partition::mapper_name(partitioner);
}

std::string
override_spec(const std::vector<LinkValue>& overrides)
{
    std::string out;
    for (const LinkValue& o : overrides) {
        if (!out.empty())
            out += ",";
        out += support::strprintf("%d-%d:%g", o.a, o.b, o.value);
    }
    return out;
}

std::vector<SweepCell>
SweepGrid::cells() const
{
    // The shape axis replaces the node-count axis when present; a shape
    // fixes its own node count.
    std::vector<std::pair<int, std::string>> machines;
    if (shapes.empty()) {
        for (int n : node_counts)
            machines.emplace_back(n, std::string{});
    } else {
        for (const std::string& s : shapes)
            machines.emplace_back(static_cast<int>(hw::parse_shape(s).size()),
                                  s);
    }

    std::vector<SweepCell> out;
    out.reserve(families.size() * qubit_counts.size() * machines.size() *
                topologies.size() * link_fidelities.size() *
                target_fidelities.size() * link_bandwidths.size() *
                partitioners.size() * option_sets.size());
    // A QASM family entry pins its own qubit count, so the qubit axis
    // collapses to a single point for it (expanding it per qubit value
    // would emit identical duplicate cells).
    for (const circuits::FamilySpec& f : families) {
        std::vector<int> qubits = qubit_counts;
        if (f.family == circuits::Family::QASM)
            qubits = {f.qasm_qubits};
        for (int q : qubits)
            for (const auto& [n, shape] : machines)
                for (hw::Topology t : topologies)
                    for (double lf : link_fidelities)
                        for (double tf : target_fidelities)
                            for (int bw : link_bandwidths)
                                for (partition::Mapper pm : partitioners)
                                    for (const OptionSet& o :
                                         option_sets) {
                                        SweepCell cell;
                                        cell.spec =
                                            circuits::spec_for(f, q, n);
                                        cell.options = o;
                                        cell.seed = seed;
                                        cell.shape = shape;
                                        cell.topology = t;
                                        cell.link_fidelity = lf;
                                        cell.target_fidelity = tf;
                                        cell.link_bandwidth = bw;
                                        cell.link_fidelity_overrides =
                                            link_fidelity_overrides;
                                        cell.link_bandwidth_overrides =
                                            link_bandwidth_overrides;
                                        cell.partitioner = pm;
                                        cell.with_baseline =
                                            with_baseline;
                                        out.push_back(std::move(cell));
                                    }
    }
    return out;
}

std::vector<SweepCell>
cells_from_specs(const std::vector<circuits::BenchmarkSpec>& specs,
                 const OptionSet& options, std::uint64_t seed,
                 bool with_baseline, bool stats_only, bool with_gptp)
{
    std::vector<SweepCell> out;
    out.reserve(specs.size());
    for (const circuits::BenchmarkSpec& spec : specs) {
        SweepCell cell;
        cell.spec = spec;
        cell.options = options;
        cell.seed = seed;
        cell.with_baseline = with_baseline;
        cell.with_gptp = with_gptp;
        cell.stats_only = stats_only;
        out.push_back(std::move(cell));
    }
    return out;
}

std::vector<int>
machine_capacities(const SweepCell& cell)
{
    const circuits::BenchmarkSpec& spec = cell.spec;
    if (spec.num_qubits <= 0 || spec.num_nodes <= 0)
        support::fatal("sweep cell %s: qubit and node counts must be "
                       "positive", spec.label().c_str());
    if (cell.shape.empty())
        return std::vector<int>(static_cast<std::size_t>(spec.num_nodes),
                                (spec.num_qubits + spec.num_nodes - 1) /
                                    spec.num_nodes);
    std::vector<int> caps = hw::parse_shape(cell.shape);
    if (static_cast<int>(caps.size()) != spec.num_nodes)
        support::fatal("sweep cell %s: shape \"%s\" has %zu nodes, "
                       "spec says %d", spec.label().c_str(),
                       cell.shape.c_str(), caps.size(), spec.num_nodes);
    return caps;
}

hw::Machine
machine_for(const SweepCell& cell)
{
    // A shapeless cell stays Machine::homogeneous (no node_capacities),
    // so its machine and error texts are what they always were.
    std::vector<int> caps = machine_capacities(cell);
    hw::Machine m =
        cell.shape.empty()
            ? hw::Machine::homogeneous(cell.spec.num_nodes, caps.front(),
                                       cell.topology)
            : hw::Machine::from_capacities(std::move(caps), cell.topology);
    m.link.fidelity = cell.link_fidelity;
    m.link.bandwidth = cell.link_bandwidth;
    m.purify.target_fidelity = cell.target_fidelity;
    // Overrides must name physical links of this topology — a spec like
    // 0-2 on a ring would otherwise be silently inert (nothing routes
    // over a non-edge) while still coloring the label, CSV, and cache
    // key. The factory's routing is still min-hop here (overrides are
    // not applied yet), so hops == 1 identifies exactly the edges; the
    // range check must come first because the all-to-all fallback
    // answers 1 for any pair.
    auto check_link = [&m](const LinkValue& o, const char* kind) {
        if (o.a >= m.num_nodes || o.b >= m.num_nodes)
            support::fatal("link %s override %d-%d names a node outside "
                           "this %d-node machine", kind, o.a, o.b,
                           m.num_nodes);
        if (m.hops(o.a, o.b) != 1)
            support::fatal("link %s override %d-%d: %d-%d is not a "
                           "physical link of the %s topology", kind, o.a,
                           o.b, o.a, o.b, hw::topology_name(m.topology));
    };
    for (const LinkValue& o : cell.link_fidelity_overrides) {
        check_link(o, "fidelity");
        m.link.set_link_fidelity(o.a, o.b, o.value);
    }
    for (const LinkValue& o : cell.link_bandwidth_overrides) {
        check_link(o, "bandwidth");
        m.link.set_link_bandwidth(o.a, o.b, static_cast<int>(o.value));
    }
    if (!cell.link_fidelity_overrides.empty()) {
        // Per-link fidelity overrides make min-hop routes suboptimal;
        // rebuild so the router can detour around the degraded fibers.
        m.build_routing();
    }
    // Catch overrides naming nodes this machine does not have here, with
    // the cell's geometry in hand, rather than deep inside the pipeline.
    m.validate_noise();
    // Uniform link fidelities never change the routing already built by
    // the factory, so no rebuild is needed for the plain axes.
    return m;
}

std::string
machine_key(const SweepCell& cell)
{
    auto overrides = [](const std::vector<LinkValue>& list) {
        std::string out;
        for (const LinkValue& o : list)
            out += support::strprintf("%s%d-%d:%.17g",
                                      out.empty() ? "" : ",", o.a, o.b,
                                      o.value);
        return out;
    };
    return support::strprintf(
        "shape=%s;topology=%s;link_fidelity=%.17g;target_fidelity=%.17g;"
        "link_bandwidth=%d;fidelity_overrides=%s;bandwidth_overrides=%s",
        cell.shape.c_str(), hw::topology_name(cell.topology),
        cell.link_fidelity, cell.target_fidelity, cell.link_bandwidth,
        overrides(cell.link_fidelity_overrides).c_str(),
        overrides(cell.link_bandwidth_overrides).c_str());
}

namespace {

/** A failure that may not reproduce (anything but a deterministic
 * UserError) — such error rows must never enter the result cache. */
bool
is_transient(const std::exception& e)
{
    return dynamic_cast<const support::UserError*>(&e) == nullptr;
}

/** The two numbers relative_factors reads from a Ferrari compile, or the
 * exception that compile threw. */
struct FerrariBaseline
{
    std::size_t total_comms = 0;
    double makespan = 0.0;
    std::exception_ptr error;
};

FerrariBaseline
ferrari_baseline(const qir::Circuit& circuit,
                 const hw::QubitMapping& mapping, const hw::Machine& machine)
{
    FerrariBaseline b;
    try {
        const pass::CompileResult r =
            baseline::compile_ferrari(circuit, mapping, machine);
        b.total_comms = r.metrics.total_comms;
        b.makespan = r.schedule.makespan;
    } catch (...) {
        b.error = std::current_exception();
    }
    return b;
}

/**
 * Work a sweep computes once and hands to every cell that shares it. An
 * empty member means the cell computes that piece itself, as run_cell
 * does. Errors are carried, not thrown, so each cell raises them at the
 * point run_cell would: after its own machine checks.
 */
struct SharedWork
{
    /** aggregate() output for the cell's (mapping, aggregate options). */
    std::shared_ptr<const std::vector<pass::CommBlock>> blocks;
    /** What aggregate() threw instead, if anything. */
    std::exception_ptr aggregate_error;
    /** The Ferrari baseline of the cell's (mapping, machine). */
    const FerrariBaseline* ferrari = nullptr;
};

/** The compile half of run_cell, over prepared inputs: @p stats is
 * circuit.stats() and @p remote_cx is mapping.count_remote(circuit),
 * computed once per program and per mapping. Drops its reference to
 * @p shared.blocks once it holds its own copy. */
SweepRow
run_cell_prepared(const SweepCell& cell, const qir::Circuit& circuit,
                  const qir::CircuitStats& stats,
                  const hw::QubitMapping& mapping, std::size_t remote_cx,
                  SharedWork& shared)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();

    SweepRow row;
    row.cell = cell;

    support::inform("compiling %s...", cell.label().c_str());
    const hw::Machine machine = machine_for(cell);
    mapping.validate(machine);

    row.stats = stats;
    row.remote_cx = remote_cx;

    if (cell.stats_only) {
        row.ok = true;
        row.compile_seconds =
            std::chrono::duration<double>(clock::now() - t0).count();
        return row;
    }

    pass::CompileResult compiled;
    if (shared.aggregate_error) {
        // compile() checks its inputs before aggregating.
        pass::validate_compile_inputs(circuit, mapping, machine);
        std::rethrow_exception(shared.aggregate_error);
    } else if (shared.blocks) {
        std::vector<pass::CommBlock> blocks = *shared.blocks;
        shared.blocks.reset();
        compiled = pass::compile_aggregated(circuit, mapping, machine,
                                            std::move(blocks),
                                            cell.options.opts);
    } else {
        compiled =
            pass::compile(circuit, mapping, machine, cell.options.opts);
    }
    row.metrics = compiled.metrics;
    row.schedule = compiled.schedule;

    if (cell.with_baseline) {
        const FerrariBaseline ferrari =
            shared.ferrari ? *shared.ferrari
                           : ferrari_baseline(circuit, mapping, machine);
        if (ferrari.error)
            std::rethrow_exception(ferrari.error);
        row.factors = baseline::relative_factors(
            ferrari.total_comms, ferrari.makespan, compiled);
    }

    if (cell.with_gptp) {
        const baseline::GptpResult gp =
            baseline::compile_gptp(circuit, mapping, machine);
        row.gptp_factors = baseline::relative_factors(
            gp.total_comms, gp.makespan, compiled);
    }

    row.ok = true;
    row.compile_seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return row;
}

} // namespace

SweepRow
run_cell(const SweepCell& cell)
{
    machine_capacities(cell); // geometry errors come before any work

    qir::Circuit circuit;
    {
        obs::Span span("decompose", cell.spec.label());
        circuit =
            qir::decompose(circuits::make_benchmark(cell.spec, cell.seed));
    }
    const hw::Machine machine = machine_for(cell);
    hw::QubitMapping mapping;
    {
        // Scoped so the interaction graph is freed before the compile,
        // which never reads it.
        obs::Span graph_span("graph", cell.spec.label());
        const partition::InteractionGraph g =
            partition::InteractionGraph::from_circuit(circuit);
        graph_span.finish();
        obs::Span span("partition", cell.spec.label());
        mapping = partition::map_with(cell.partitioner, g, machine);
    }
    mapping.validate(machine);
    SharedWork own;
    return run_cell_prepared(cell, circuit, circuit.stats(), mapping,
                             mapping.count_remote(circuit), own);
}

std::vector<SweepRow>
run_sweep(const std::vector<SweepCell>& cells, const SweepOptions& opts)
{
    std::vector<SweepRow> rows(cells.size());
    if (cells.empty())
        return rows;

    // ---- Consult the persistent result store ----
    // Cache-hit cells skip grouping below entirely, so an option-set
    // whose cells all hit never even prepares its circuit or mapping —
    // a fully warm sweep performs zero compilation work.
    std::vector<char> cached(cells.size(), 0);
    std::vector<cache::CellKey> keys;
    if (opts.store) {
        keys.reserve(cells.size());
        for (const SweepCell& cell : cells)
            keys.push_back(cache::cell_key(cell, opts.store->salt()));
        for (std::size_t i = 0; i < cells.size(); ++i) {
            // Scope the lookup so its cache.hits/cache.misses land in
            // the cell's own stats bucket.
            obs::CellScope scope(cells[i].label());
            if (std::optional<SweepRow> hit =
                    opts.store->lookup(keys[i], cells[i])) {
                rows[i] = std::move(*hit);
                cached[i] = 1;
            }
        }
    }

    // Error rows are cacheable only when the failure is deterministic
    // (a UserError: bad geometry, unreachable target, ...). A transient
    // failure — bad_alloc under memory pressure, say — must not be
    // served as a permanent error on every later run.
    std::vector<char> transient(cells.size(), 0);
    auto record_error = [&](std::size_t i, const std::exception& e) {
        rows[i].cell = cells[i];
        rows[i].ok = false;
        rows[i].error = e.what();
        transient[i] = is_transient(e);
    };

    // ---- Group cells by shared work ----
    // Cells differing only in topology, noise, or option set share the
    // generated circuit, its interaction graph, AND — under OEE, which
    // sees only the circuit and the node capacities — the qubit mapping;
    // cells differing only in machine shape still share the circuit and
    // graph. A topology/fidelity-aware partitioner reads the machine's
    // routing table and link model, so its mapping groups additionally
    // split on the topology and noise axes (see mkey below).
    //
    // Within a mapping group, aggregation reads only the circuit, the
    // mapping, and the aggregate options, so cells sharing those share
    // one aggregate() call (the default, catonly, noprefetch, and
    // nofusion arms all do). The Ferrari baseline reads the circuit,
    // the mapping, and the machine, so cells sharing those share one
    // baseline compile. Memoizing every level turns an ablation grid's
    // shared work from O(cells) into O(distinct inputs).
    //
    // Every stage catches its own failure into `error`; a failed program
    // or mapping passes it on unrun, and each cell rethrows it inside
    // its own try, so the row's text and transient-ness come from the
    // original exception, as they would from run_cell.
    struct Program
    {
        /** Exemplar cell of the group: its spec and seed. */
        const SweepCell* cell = nullptr;
        qir::Circuit circuit;
        qir::CircuitStats stats;
        std::optional<partition::InteractionGraph> graph;
        std::exception_ptr error;
        std::vector<std::size_t> mappings;
    };
    struct Mapping
    {
        std::size_t program = 0;
        std::vector<int> capacities;
        /** Exemplar cell of the group (machine recipe for non-OEE
         * partitioners; every cell in the group derives the identical
         * machine by construction of the key). */
        const SweepCell* cell = nullptr;
        std::optional<hw::QubitMapping> map;
        std::size_t remote_cx = 0; ///< map->count_remote(circuit)
        std::exception_ptr error;
        std::vector<std::size_t> cells;
        std::vector<std::size_t> aggregates;
        std::vector<std::size_t> baselines;
    };
    /** One aggregate() or Ferrari compile, shared by its cells. */
    struct Group
    {
        std::size_t mapping = 0;
        /** Exemplar cell: its aggregate options, or its machine recipe. */
        const SweepCell* cell = nullptr;
        std::vector<std::size_t> cells;
    };

    std::map<std::string, std::size_t> program_index;
    std::map<std::string, std::size_t> mapping_index;
    std::map<std::string, std::size_t> aggregate_index;
    std::map<std::string, std::size_t> baseline_index;
    std::vector<Program> programs;
    std::vector<Mapping> mappings;
    std::vector<Group> aggregates;
    std::vector<Group> baselines;
    // Shared stages each cell still waits for before it can start.
    std::vector<std::atomic<int>> pending(cells.size());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell& cell = cells[i];
        if (cached[i])
            continue;
        std::vector<int> capacities;
        try {
            capacities = machine_capacities(cell);
        } catch (const std::exception& e) {
            record_error(i, e);
            continue;
        }
        // num_nodes is part of the program key even though no current
        // family reads it from the spec — if one ever becomes
        // node-aware, sharing a circuit across node counts would
        // silently diverge from run_cell(). The axes this cache is for
        // (option set, topology, noise) never vary the key. QASM specs
        // key on their file path too: two files with equal qubit counts
        // are different programs.
        const std::string pkey = support::strprintf(
            "%s|%d|%d|%llu|%s", circuits::family_name(cell.spec.family),
            cell.spec.num_qubits, cell.spec.num_nodes,
            static_cast<unsigned long long>(cell.seed),
            cell.spec.qasm_path.c_str());
        auto [pit, pnew] = program_index.emplace(pkey, programs.size());
        if (pnew)
            programs.emplace_back().cell = &cell;

        // OEE reads only the capacities, so its groups deliberately span
        // the topology and noise axes. The multilevel partitioners read
        // the machine's routing table and link fidelities, so their
        // groups must split on everything the derived machine depends on.
        const std::string mkey =
            support::strprintf("%s|%s|", pkey.c_str(),
                               partition::mapper_name(cell.partitioner)) +
            (cell.partitioner == partition::Mapper::Oee ? cell.shape
                                                        : machine_key(cell));
        auto [mit, mnew] = mapping_index.emplace(mkey, mappings.size());
        const std::size_t m = mit->second;
        if (mnew) {
            Mapping& mp = mappings.emplace_back();
            mp.program = pit->second;
            mp.cell = &cell;
            mp.capacities = std::move(capacities);
            programs[pit->second].mappings.push_back(m);
        }
        mappings[m].cells.push_back(i);
        if (cell.stats_only)
            continue; // counts only: no aggregation, no baseline

        auto join = [&](std::map<std::string, std::size_t>& index,
                        std::vector<Group>& groups,
                        std::vector<std::size_t>& of_mapping,
                        const std::string& key) {
            auto [it, fresh] = index.emplace(key, groups.size());
            if (fresh) {
                groups.push_back(Group{m, &cell, {}});
                of_mapping.push_back(it->second);
            }
            groups[it->second].cells.push_back(i);
            ++pending[i];
        };
        const pass::AggregateOptions& agg = cell.options.opts.aggregate;
        join(aggregate_index, aggregates, mappings[m].aggregates,
             support::strprintf("%zu|%d|%d|%d", m,
                                agg.use_commutation ? 1 : 0,
                                agg.absorb_local_gates ? 1 : 0,
                                agg.comm_capacity));
        if (cell.with_baseline)
            join(baseline_index, baselines, mappings[m].baselines,
                 support::strprintf("%zu|", m) + machine_key(cell));
    }

    support::ThreadPool pool(opts.num_threads);

    // ---- Stage pipeline over the shared-work DAG ----
    // program -> its mapping groups -> their aggregation and baseline
    // groups -> their cells, with no barrier between stages: a cell
    // starts compiling the moment the last shared stage it needs is
    // done, while unrelated programs are still decomposing and other
    // groups are still partitioning. Warm cache-hit cells and failed
    // geometry checks never enter the pipeline at all. Rows are written
    // by index, so the output order is the cell order no matter which
    // worker finishes first — the result is byte-identical for every
    // thread count.
    std::vector<SharedWork> shared(cells.size());
    std::vector<FerrariBaseline> ferrari(baselines.size());

    // Completion tracking for dynamically submitted continuations.
    std::mutex pipe_mu;
    std::condition_variable pipe_done;
    std::size_t outstanding = 0;
    std::exception_ptr stray; // escaped a stage's own handler: a bug

    auto launch = [&](auto&& body) {
        {
            std::lock_guard<std::mutex> lock(pipe_mu);
            ++outstanding;
        }
        pool.submit([&, body = std::forward<decltype(body)>(body)]() {
            try {
                body();
            } catch (...) {
                std::lock_guard<std::mutex> lock(pipe_mu);
                if (!stray)
                    stray = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(pipe_mu);
            if (--outstanding == 0)
                pipe_done.notify_all();
        });
    };

    // Stage 4: compile cell i of mapping group m against its memoized
    // shared work, or rethrow what its program or mapping threw.
    auto cell_stage = [&](std::size_t i, std::size_t m) {
        const Mapping& mp = mappings[m];
        // Everything this cell records — pass spans, EPR counters,
        // cache traffic — attributes to its label in the stats JSON's
        // `cells` section. The memoized stages before it stay unscoped
        // on purpose: their work is shared across cells.
        obs::CellScope scope(cells[i].label());
        obs::count("pipeline.cells_started");
        obs::Span span("cell", cells[i].label());
        try {
            if (mp.error)
                std::rethrow_exception(mp.error);
            const Program& prog = programs[mp.program];
            rows[i] = run_cell_prepared(cells[i], prog.circuit, prog.stats,
                                        *mp.map, mp.remote_cx, shared[i]);
            obs::count("pipeline.cells_completed");
        } catch (const std::exception& e) {
            // A cell that threw before copying its blocks still lets go.
            shared[i].blocks.reset();
            record_error(i, e);
        }
    };

    // A shared stage finished for cell i; the last one starts the cell.
    auto release = [&](std::size_t i, std::size_t m) {
        if (pending[i].fetch_sub(1, std::memory_order_acq_rel) == 1)
            launch([&, i, m]() { cell_stage(i, m); });
    };

    // Stage 3a: aggregate once for every cell of the group. Never
    // throws: the error travels to the cells.
    auto aggregate_stage = [&](std::size_t g) {
        const Group& grp = aggregates[g];
        const Mapping& mp = mappings[grp.mapping];
        const qir::Circuit& circuit = programs[mp.program].circuit;
        std::shared_ptr<const std::vector<pass::CommBlock>> blocks;
        std::exception_ptr error;
        try {
            obs::Span span("aggregate", grp.cell->spec.label());
            blocks = std::make_shared<const std::vector<pass::CommBlock>>(
                pass::aggregate(circuit, *mp.map,
                                grp.cell->options.opts.aggregate));
        } catch (...) {
            error = std::current_exception();
        }
        for (std::size_t i : grp.cells) {
            shared[i].blocks = blocks;
            shared[i].aggregate_error = error;
            release(i, grp.mapping);
        }
    };

    // Stage 3b: the Ferrari baseline once for every cell of the group,
    // on the exemplar cell's machine. Never throws, like stage 3a.
    auto baseline_stage = [&](std::size_t g) {
        const Group& grp = baselines[g];
        const Mapping& mp = mappings[grp.mapping];
        try {
            ferrari[g] = ferrari_baseline(programs[mp.program].circuit,
                                          *mp.map, machine_for(*grp.cell));
        } catch (...) {
            ferrari[g].error = std::current_exception();
        }
        for (std::size_t i : grp.cells) {
            shared[i].ferrari = &ferrari[g];
            release(i, grp.mapping);
        }
    };

    // Stage 2: partition one mapping group, or take on its program's
    // error. OEE sees only the capacities; the multilevel partitioners
    // derive the group's machine (routing table + link model) from its
    // exemplar cell.
    auto mapping_stage = [&](std::size_t m) {
        Mapping& mp = mappings[m];
        const Program& prog = programs[mp.program];
        mp.error = prog.error;
        if (!mp.error) {
            try {
                obs::Span span("partition", mp.cell->label());
                if (mp.cell->partitioner == partition::Mapper::Oee) {
                    mp.map = hw::QubitMapping(partition::oee_partition(
                        *prog.graph, mp.capacities));
                } else {
                    mp.map = partition::map_with(mp.cell->partitioner,
                                                 *prog.graph,
                                                 machine_for(*mp.cell));
                }
                mp.remote_cx = mp.map->count_remote(prog.circuit);
            } catch (...) {
                mp.error = std::current_exception();
            }
        }
        // A failed mapping has nothing left to share: its cells start
        // at once and rethrow its error.
        for (std::size_t i : mp.cells)
            if (mp.error || pending[i].load(std::memory_order_relaxed) == 0)
                launch([&, i, m]() { cell_stage(i, m); });
        if (mp.error)
            return;
        for (std::size_t g : mp.aggregates)
            launch([&, g]() { aggregate_stage(g); });
        for (std::size_t g : mp.baselines)
            launch([&, g]() { baseline_stage(g); });
    };

    // Stage 1: generate + decompose one distinct program, count its
    // gate stats, build its interaction graph. A failed program still
    // launches its mappings, which hand its error to their cells.
    auto program_stage = [&](std::size_t p) {
        Program& prog = programs[p];
        try {
            {
                obs::Span span("decompose", prog.cell->spec.label());
                prog.circuit = qir::decompose(circuits::make_benchmark(
                    prog.cell->spec, prog.cell->seed));
            }
            prog.stats = prog.circuit.stats();
            obs::Span span("graph", prog.cell->spec.label());
            prog.graph =
                partition::InteractionGraph::from_circuit(prog.circuit);
        } catch (...) {
            prog.error = std::current_exception();
        }
        for (std::size_t m : prog.mappings)
            launch([&, m]() { mapping_stage(m); });
    };

    for (std::size_t p = 0; p < programs.size(); ++p)
        launch([&, p]() { program_stage(p); });
    {
        std::unique_lock<std::mutex> lock(pipe_mu);
        pipe_done.wait(lock, [&]() { return outstanding == 0; });
    }
    if (stray)
        std::rethrow_exception(stray);

    // ---- Record freshly compiled rows ----
    // Deterministic error rows are recorded too: a capacity mismatch or
    // unreachable purification target re-fails identically every run.
    // Persisting (flush) is the caller's call.
    if (opts.store)
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (!cached[i] && !transient[i])
                opts.store->insert(keys[i], rows[i]);
    return rows;
}

support::CsvWriter
sweep_csv(const std::vector<SweepRow>& rows)
{
    support::CsvWriter csv(
        {"name", "options", "qubits", "nodes", "topology", "shape",
         "link_fidelity", "target_fidelity", "link_bandwidth",
         "fidelity_overrides", "bandwidth_overrides", "ok",
         "error", "gates", "cx", "rem_cx", "blocks", "tot_comm", "tp_comm",
         "cat_comm", "peak_rem_cx", "makespan", "epr_pairs", "hops_total",
         "epr_raw", "purify_rounds", "program_fidelity", "improv_factor",
         "lat_dec_factor"});
    for (const SweepRow& r : rows) {
        csv.start_row();
        csv.add(r.cell.spec.label());
        csv.add(r.cell.options_label());
        csv.add(static_cast<long long>(r.cell.spec.num_qubits));
        csv.add(static_cast<long long>(r.cell.spec.num_nodes));
        csv.add(std::string(hw::topology_name(r.cell.topology)));
        csv.add(r.cell.shape);
        csv.add(r.cell.link_fidelity);
        csv.add(r.cell.target_fidelity);
        csv.add(static_cast<long long>(r.cell.link_bandwidth));
        csv.add(override_spec(r.cell.link_fidelity_overrides));
        csv.add(override_spec(r.cell.link_bandwidth_overrides));
        csv.add(static_cast<long long>(r.ok ? 1 : 0));
        csv.add(r.error);
        csv.add(static_cast<long long>(r.stats.total_gates));
        csv.add(static_cast<long long>(r.stats.cx_gates));
        csv.add(static_cast<long long>(r.remote_cx));
        csv.add(static_cast<long long>(r.metrics.num_blocks));
        csv.add(static_cast<long long>(r.metrics.total_comms));
        csv.add(static_cast<long long>(r.metrics.tp_comms));
        csv.add(static_cast<long long>(r.metrics.cat_comms));
        csv.add(r.metrics.peak_rem_cx);
        csv.add(r.schedule.makespan);
        csv.add(static_cast<long long>(r.schedule.epr_pairs));
        csv.add(static_cast<long long>(r.schedule.hops_total));
        csv.add(static_cast<long long>(r.schedule.epr_raw_pairs));
        csv.add(static_cast<long long>(r.schedule.purify_rounds));
        csv.add(r.schedule.program_fidelity());
        csv.add(r.factors ? r.factors->improv_factor : 0.0);
        csv.add(r.factors ? r.factors->lat_dec_factor : 0.0);
    }
    return csv;
}

namespace {

std::vector<std::string>
split_list(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t sep_at = s.find(sep, start);
        const std::size_t end =
            sep_at == std::string::npos ? s.size() : sep_at;
        if (end > start)
            out.push_back(s.substr(start, end - start));
        if (sep_at == std::string::npos)
            break;
        start = sep_at + 1;
    }
    return out;
}

} // namespace

std::vector<int>
parse_int_list(const std::string& list, const char* flag, long min_value,
               long max_value)
{
    std::vector<int> out;
    for (const std::string& tok : split_list(list, ',')) {
        char* end = nullptr;
        const long v = std::strtol(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || v < min_value ||
            v > max_value)
            support::fatal("%s: \"%s\" is not an integer in [%ld, %ld]",
                           flag, tok.c_str(), min_value, max_value);
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<double>
parse_fidelity_list(const std::string& list, const char* flag,
                    bool zero_disables)
{
    std::vector<double> out;
    for (const std::string& tok : split_list(list, ',')) {
        char* end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        // Raw link fidelities live in (0.25, 1] — above the maximally
        // mixed Werner floor (see noise::LinkModel::validate).
        // Purification targets (zero_disables) live in (0, 1) — the
        // recurrence reaches 1 only asymptotically — with 0 meaning
        // "purification off".
        const bool in_range = zero_disables
                                  ? ((v > 0.0 && v < 1.0) || v == 0.0)
                                  : (v > 0.25 && v <= 1.0);
        if (end == tok.c_str() || *end != '\0' || !in_range)
            support::fatal("%s: \"%s\" is not a fidelity in %s", flag,
                           tok.c_str(),
                           zero_disables ? "(0, 1) (or 0 to disable)"
                                         : "(0.25, 1]");
        out.push_back(v);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<hw::Topology>
parse_topology_list(const std::string& list, const char* flag)
{
    std::vector<hw::Topology> out;
    for (const std::string& tok : split_list(list, ',')) {
        const auto t = hw::parse_topology(tok);
        if (!t)
            support::fatal("%s: unknown topology \"%s\" (expected "
                           "all_to_all, ring, grid, or star)",
                           flag, tok.c_str());
        out.push_back(*t);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<circuits::FamilySpec>
parse_family_list(const std::string& list, const char* flag)
{
    std::vector<circuits::FamilySpec> out;
    for (const std::string& tok : split_list(list, ',')) {
        std::optional<std::vector<circuits::FamilySpec>> specs;
        try {
            specs = circuits::parse_family_spec(tok);
        } catch (const support::UserError& e) {
            // A recognized qasm:/qasmdir: token with a bad payload —
            // re-raise with the flag named.
            support::fatal("%s: \"%s\": %s", flag, tok.c_str(), e.what());
        }
        if (!specs)
            support::fatal("%s: unknown family \"%s\" (expected MCTR, "
                           "RCA, QFT, BV, QAOA, UCCSD, qasm:<path>, or "
                           "qasmdir:<dir>)",
                           flag, tok.c_str());
        out.insert(out.end(), specs->begin(), specs->end());
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<partition::Mapper>
parse_mapper_list(const std::string& list, const char* flag)
{
    std::vector<partition::Mapper> out;
    for (const std::string& tok : split_list(list, ',')) {
        const auto m = partition::parse_mapper(tok);
        if (!m)
            support::fatal("%s: unknown partitioner \"%s\" (expected "
                           "oee, multilevel, or multilevel+oee)",
                           flag, tok.c_str());
        out.push_back(*m);
    }
    if (out.empty())
        support::fatal("%s: empty list", flag);
    return out;
}

std::vector<LinkValue>
parse_override_list(const std::string& list, const char* flag,
                    bool integer_value)
{
    std::vector<LinkValue> out;
    for (const std::string& tok : split_list(list, ',')) {
        const std::size_t dash = tok.find('-');
        const std::size_t colon = tok.find(':', dash + 1);
        if (dash == std::string::npos || colon == std::string::npos)
            support::fatal("%s: \"%s\" is not an \"a-b:value\" override",
                           flag, tok.c_str());

        const std::string a_tok = tok.substr(0, dash);
        const std::string b_tok = tok.substr(dash + 1, colon - dash - 1);
        const std::string v_tok = tok.substr(colon + 1);
        char* end = nullptr;
        const long a = std::strtol(a_tok.c_str(), &end, 10);
        if (a_tok.empty() || *end != '\0' || a < 0)
            support::fatal("%s: \"%s\": node \"%s\" is not a non-negative "
                           "integer", flag, tok.c_str(), a_tok.c_str());
        const long b = std::strtol(b_tok.c_str(), &end, 10);
        if (b_tok.empty() || *end != '\0' || b < 0)
            support::fatal("%s: \"%s\": node \"%s\" is not a non-negative "
                           "integer", flag, tok.c_str(), b_tok.c_str());
        if (a == b)
            support::fatal("%s: \"%s\": a link connects two distinct "
                           "nodes", flag, tok.c_str());

        LinkValue o;
        o.a = static_cast<int>(std::min(a, b));
        o.b = static_cast<int>(std::max(a, b));
        if (integer_value) {
            const long v = std::strtol(v_tok.c_str(), &end, 10);
            if (v_tok.empty() || *end != '\0' || v < 0 || v > 1'000'000)
                support::fatal("%s: \"%s\": bandwidth \"%s\" is not an "
                               "integer in [0, 1000000] (0 = unlimited)",
                               flag, tok.c_str(), v_tok.c_str());
            o.value = static_cast<double>(v);
        } else {
            const double v = std::strtod(v_tok.c_str(), &end);
            if (v_tok.empty() || *end != '\0' || v <= 0.25 || v > 1.0)
                support::fatal("%s: \"%s\": fidelity \"%s\" is not in "
                               "(0.25, 1]", flag, tok.c_str(),
                               v_tok.c_str());
            o.value = v;
        }
        for (const LinkValue& seen : out)
            if (seen.a == o.a && seen.b == o.b)
                support::fatal("%s: link %d-%d overridden twice", flag,
                               o.a, o.b);
        out.push_back(o);
    }
    if (out.empty())
        support::fatal("%s: empty override list", flag);
    std::sort(out.begin(), out.end(), [](const LinkValue& x,
                                         const LinkValue& y) {
        return std::make_pair(x.a, x.b) < std::make_pair(y.a, y.b);
    });
    return out;
}

ShardSpec
parse_shard(const std::string& spec, const char* flag)
{
    const std::size_t slash = spec.find('/');
    const std::string i_tok =
        slash == std::string::npos ? std::string{} : spec.substr(0, slash);
    const std::string n_tok =
        slash == std::string::npos ? std::string{} : spec.substr(slash + 1);
    char* end = nullptr;
    const long i = std::strtol(i_tok.c_str(), &end, 10);
    const bool i_ok = !i_tok.empty() && *end == '\0';
    const long n = std::strtol(n_tok.c_str(), &end, 10);
    const bool n_ok = !n_tok.empty() && *end == '\0';
    if (!i_ok || !n_ok || i < 0 || n < 1 || i >= n)
        support::fatal("%s: \"%s\" is not an \"i/N\" shard spec with "
                       "0 <= i < N", flag, spec.c_str());
    return ShardSpec{static_cast<int>(i), static_cast<int>(n)};
}

std::vector<std::string>
parse_shape_list(const std::string& list, const char* flag)
{
    std::vector<std::string> out;
    for (const std::string& tok : split_list(list, ';')) {
        try {
            hw::parse_shape(tok); // validate eagerly
        } catch (const support::UserError& e) {
            support::fatal("%s: bad shape \"%s\": %s", flag, tok.c_str(),
                           e.what());
        }
        out.push_back(tok);
    }
    if (out.empty())
        support::fatal("%s: empty shape list", flag);
    return out;
}

} // namespace autocomm::driver
