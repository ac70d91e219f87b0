#include "replay.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <tuple>

#include "autocomm/pipeline.hpp"
#include "baseline/ferrari.hpp"
#include "baseline/gptp.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "circuits/library.hpp"
#include "multilevel/partitioner.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/mapper.hpp"
#include "partition/oee.hpp"
#include "qir/decompose.hpp"
#include "support/log.hpp"
#include "verify/check.hpp"

namespace perfbench {

using namespace autocomm;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- Recorder

std::uint64_t
Recorder::now_ns() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
}

int
Recorder::begin(const char* name, std::string label)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{name, std::move(label), open_, now_ns(), 0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
}

double
Recorder::end(int id)
{
    if (id < 0)
        return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1_ns = now_ns();
    open_ = s.parent;
    return static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
}

std::map<std::string, double>
Recorder::self_ms() const
{
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] += s.t1_ns - s.t0_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(spans_[i].t1_ns -
                                                   spans_[i].t0_ns -
                                                   child_ns[i]) /
                               1e6;
    return out;
}

double
Recorder::root_ms() const
{
    std::uint64_t ns = 0;
    for (const Span& s : spans_)
        if (s.parent < 0)
            ns += s.t1_ns - s.t0_ns;
    return static_cast<double>(ns) / 1e6;
}

bool
Recorder::write_chrome_trace(const std::string& path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::string label;
        for (char ch : s.label)
            if (ch != '"' && ch != '\\')
                label += ch;
        out << (i ? ",\n" : "\n")
            << support::strprintf(
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"label\":\"%s\"}}",
                   s.name, static_cast<double>(s.t0_ns) / 1e3,
                   static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                   label.c_str());
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
ReplayReport::fail(const std::string& why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

// ---------------------------------------------------------------- replay

namespace {

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::string
row_csv(const driver::SweepRow& r)
{
    return driver::sweep_csv({r}).to_string();
}

std::vector<int>
capacities(const driver::SweepCell& cell)
{
    if (!cell.shape.empty())
        return hw::parse_shape(cell.shape);
    const int n = cell.spec.num_nodes;
    return std::vector<int>(static_cast<std::size_t>(n),
                            (cell.spec.num_qubits + n - 1) / n);
}

/** The machine of @p cell: shape, topology, link noise, overrides. */
hw::Machine
build_machine(const driver::SweepCell& cell)
{
    const int n = cell.spec.num_nodes;
    hw::Machine m =
        cell.shape.empty()
            ? hw::Machine::homogeneous(n, (cell.spec.num_qubits + n - 1) / n,
                                       cell.topology)
            : hw::Machine::from_capacities(hw::parse_shape(cell.shape),
                                           cell.topology);
    m.link.fidelity = cell.link_fidelity;
    m.link.bandwidth = cell.link_bandwidth;
    m.purify.target_fidelity = cell.target_fidelity;
    for (const driver::LinkValue& o : cell.link_fidelity_overrides)
        m.link.set_link_fidelity(o.a, o.b, o.value);
    for (const driver::LinkValue& o : cell.link_bandwidth_overrides)
        m.link.set_link_bandwidth(o.a, o.b, static_cast<int>(o.value));
    if (!cell.link_fidelity_overrides.empty())
        m.build_routing();
    m.validate_noise();
    return m;
}

/** Compiles a workload's cells one public layer call at a time. */
class Engine
{
  public:
    Engine(const Workload& w, Recorder& rec, bool check,
           const std::vector<driver::SweepRow>& reference, ReplayReport& out)
        : w_(w), rec_(rec), check_(check), ref_(reference), out_(out)
    {
    }

    /** Replay cell @p i; returns its row. */
    driver::SweepRow compile(std::size_t i);

    /** Time spent only on checking, ms. */
    double check_ms() const { return check_ms_; }

    /** Longest program -> mapping -> cell chain, ms (recorded only). */
    double longest_chain_ms() const
    {
        double best = 0.0;
        for (const Mapping& mp : mappings_)
            best = std::max(best, programs_[mp.program].ms + mp.ms +
                                      mp.max_cell_ms);
        return best;
    }

  private:
    struct Program
    {
        qir::Circuit circuit;
        std::optional<partition::InteractionGraph> graph;
        double ms = 0.0;
    };
    struct Mapping
    {
        std::size_t program = 0;
        hw::QubitMapping map;
        double ms = 0.0;
        double max_cell_ms = 0.0;
    };

    std::string label(const driver::SweepCell& cell) const
    {
        return rec_.on() ? cell.label() : std::string();
    }

    /** One cell's compile stage and everything checking it needs. */
    struct Compiled
    {
        driver::SweepRow row;
        hw::Machine machine;
        pass::CompileResult result;
        std::optional<pass::CompileResult> ferrari;
        std::optional<baseline::GptpResult> gptp;
    };

    std::size_t mapping_for(std::size_t i);
    /** The compile half of run_cell over prepared inputs, one public
     * layer call per span. */
    Compiled compile_stage(const driver::SweepCell& cell,
                           const qir::Circuit& c,
                           const hw::QubitMapping& map);
    void check_cell(std::size_t i, Compiled& out, const qir::Circuit& c,
                    const hw::QubitMapping& map);

    const Workload& w_;
    Recorder& rec_;
    bool check_;
    const std::vector<driver::SweepRow>& ref_;
    ReplayReport& out_;
    double check_ms_ = 0.0;

    std::map<std::string, std::size_t> program_index_;
    std::map<std::string, std::size_t> mapping_index_;
    std::vector<Program> programs_;
    std::vector<Mapping> mappings_;
    std::set<std::tuple<std::size_t, bool, bool, int>> aggregated_;
};

std::size_t
Engine::mapping_for(std::size_t i)
{
    const driver::SweepCell& cell = w_.cells[i];
    // run_sweep shares a program across cells with equal (family,
    // qubits, nodes, seed); run_cell prepares every cell afresh.
    std::string pkey = support::strprintf(
        "%s|%d|%d|%llu", circuits::family_name(cell.spec.family),
        cell.spec.num_qubits, cell.spec.num_nodes,
        static_cast<unsigned long long>(cell.seed));
    if (w_.serial)
        pkey += support::strprintf("#%zu", i);
    auto [pit, pnew] = program_index_.emplace(pkey, programs_.size());
    if (pnew) {
        Program p;
        const std::string lbl = rec_.on() ? cell.spec.label() : "";
        {
            Scoped s(rec_, "qir.decompose", lbl);
            p.circuit =
                qir::decompose(circuits::make_benchmark(cell.spec, cell.seed));
            p.ms += s.finish();
        }
        {
            Scoped s(rec_, "partition.graph", lbl);
            p.graph = partition::InteractionGraph::from_circuit(p.circuit);
            p.ms += s.finish();
        }
        out_.gates += p.circuit.size();
        programs_.push_back(std::move(p));
    }

    // OEE sees only the capacities, so its mapping spans the topology and
    // noise axes; the multilevel partitioners read the whole machine.
    std::string mkey = support::strprintf(
        "%s|%s|%s", pkey.c_str(), cell.shape.c_str(),
        partition::mapper_name(cell.partitioner));
    if (cell.partitioner != partition::Mapper::Oee)
        mkey += support::strprintf(
            "|%s|%.17g|%.17g|%d|%s|%s", hw::topology_name(cell.topology),
            cell.link_fidelity, cell.target_fidelity, cell.link_bandwidth,
            driver::override_spec(cell.link_fidelity_overrides).c_str(),
            driver::override_spec(cell.link_bandwidth_overrides).c_str());
    auto [mit, mnew] = mapping_index_.emplace(mkey, mappings_.size());
    if (mnew) {
        Mapping mp;
        mp.program = pit->second;
        const Program& p = programs_[mp.program];
        if (cell.partitioner == partition::Mapper::Oee) {
            Scoped s(rec_, "partition.oee", label(cell));
            mp.map = hw::QubitMapping(
                partition::oee_partition(*p.graph, capacities(cell)));
            mp.ms = s.finish();
        } else {
            hw::Machine m;
            {
                Scoped s(rec_, "hw.machine", label(cell));
                m = build_machine(cell);
                mp.ms += s.finish();
            }
            Scoped s(rec_, "partition.multilevel", label(cell));
            std::vector<NodeId> part =
                multilevel::multilevel_partition(*p.graph, m);
            if (cell.partitioner == partition::Mapper::MultilevelOee)
                part = partition::oee_polish(*p.graph, std::move(part),
                                             m.num_nodes,
                                             partition::MapperOptions{}.polish);
            mp.map = hw::QubitMapping(std::move(part));
            mp.ms += s.finish();
        }
        out_.remote_cx += mp.map.count_remote(p.circuit);
        mappings_.push_back(std::move(mp));
    }
    return mit->second;
}

Engine::Compiled
Engine::compile_stage(const driver::SweepCell& cell, const qir::Circuit& c,
                      const hw::QubitMapping& map)
{
    const pass::CompileOptions& opts = cell.options.opts;
    Scoped span(rec_, "cell", label(cell));
    Compiled out;
    driver::SweepRow& row = out.row;
    row.cell = cell;
    {
        Scoped s(rec_, "hw.machine");
        out.machine = build_machine(cell);
    }
    row.stats = c.stats();
    row.remote_cx = map.count_remote(c);

    pass::CompileResult& r = out.result;
    {
        Scoped s(rec_, "autocomm.aggregate");
        r.blocks = pass::aggregate(c, map, opts.aggregate);
    }
    {
        Scoped s(rec_, "autocomm.assign");
        pass::assign_schemes(c, r.blocks, opts.assign);
    }
    {
        Scoped s(rec_, "autocomm.reorder");
        r.metrics = pass::compute_metrics(c, r.blocks);
        r.reordered = pass::reorder_with_blocks(c, r.blocks, &r.block_start);
    }
    {
        Scoped s(rec_, "autocomm.schedule");
        r.schedule = pass::schedule_program(r.reordered, r.blocks,
                                            r.block_start, map, out.machine,
                                            opts.schedule);
    }
    row.metrics = r.metrics;
    row.schedule = r.schedule;

    if (cell.with_baseline) {
        Scoped s(rec_, "baseline.ferrari");
        out.ferrari = baseline::compile_ferrari(c, map, out.machine);
        row.factors = baseline::relative_factors(*out.ferrari, r);
    }
    if (cell.with_gptp) {
        Scoped s(rec_, "baseline.gptp");
        out.gptp = baseline::compile_gptp(c, map, out.machine);
        row.gptp_factors = baseline::relative_factors(
            out.gptp->total_comms, out.gptp->makespan, r);
    }
    row.ok = true;
    return out;
}

driver::SweepRow
Engine::compile(std::size_t i)
{
    const driver::SweepCell& cell = w_.cells[i];
    if (cell.stats_only)
        support::fatal("replay: stats-only cell %s", cell.label().c_str());
    const std::size_t mi = mapping_for(i);
    Mapping& mp = mappings_[mi];
    const qir::Circuit& c = programs_[mp.program].circuit;

    const auto t0 = Clock::now();
    Compiled out = compile_stage(cell, c, mp.map);
    mp.max_cell_ms = std::max(mp.max_cell_ms, ms_since(t0));

    const pass::AggregateOptions& agg = cell.options.opts.aggregate;
    ++out_.aggregate_calls;
    if (!aggregated_
             .emplace(mi, agg.use_commutation, agg.absorb_local_gates,
                      agg.comm_capacity)
             .second)
        ++out_.aggregate_dups;
    const pass::CompileResult& r = out.result;
    out_.blocks += r.metrics.num_blocks;
    out_.block_remote_cx += r.metrics.remote_gates;
    out_.epr_pairs += r.schedule.epr_pairs;
    out_.detours += r.schedule.detours;
    out_.purify_rounds += r.schedule.purify_rounds;
    ++out_.cells;

    if (check_)
        check_cell(i, out, c, mp.map);
    return std::move(out.row);
}

void
Engine::check_cell(std::size_t i, Compiled& out, const qir::Circuit& c,
                   const hw::QubitMapping& map)
{
    const auto t0 = Clock::now();
    const pass::CompileResult& r = out.result;
    if (!out.ferrari)
        out.ferrari = baseline::compile_ferrari(c, map, out.machine);
    verify::CheckReport rep = verify::check_schedule(r.schedule, out.machine);
    rep.merge(verify::check_metrics(r.metrics, c, map));
    rep.merge(verify::check_cross(r, *out.ferrari));
    if (out.gptp)
        rep.merge(verify::check_gptp(*out.gptp));
    const std::string name = w_.cells[i].label();
    if (!rep.ok())
        out_.fail(name + ": " + rep.to_string());
    else if (i >= ref_.size() || row_csv(out.row) != row_csv(ref_[i]))
        out_.fail(name + ": replayed row differs from the timed pass's row");

    const pass::CompileResult& base = *out.ferrari;
    if (w_.cells[i].options.name == "default" &&
        base.metrics.total_comms > 0 && base.schedule.makespan > 0) {
        ++out_.default_cells;
        out_.comm_reduction_sum +=
            1.0 - static_cast<double>(r.metrics.total_comms) /
                      static_cast<double>(base.metrics.total_comms);
        out_.latency_reduction_sum +=
            1.0 - r.schedule.makespan / base.schedule.makespan;
    }
    check_ms_ += ms_since(t0);
}

} // namespace

ReplayReport
replay(Runner& runner, const std::vector<driver::SweepRow>& reference,
       Recorder& rec, bool check)
{
    const Workload& w = runner.workload();
    ReplayReport out;
    Engine eng(w, rec, check, reference, out);

    if (!w.uses_store()) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            (void)eng.compile(i);
        out.work_ms = ms_since(t0) - eng.check_ms();
        out.critical_path_ms = w.serial ? rec.root_ms()
                                        : eng.longest_chain_ms();
        return out;
    }

    // Store workload: the coordinator's serial store traffic around the
    // compiles of the cells the store misses.
    const std::filesystem::path dir = runner.fresh_store("replay");
    std::vector<char> hit(w.cells.size(), 0);
    double coordinator_ms = 0.0;
    const auto t0 = Clock::now();
    {
        std::optional<cache::ResultStore> store;
        {
            Scoped s(rec, "cache.open");
            store.emplace(dir.string());
            coordinator_ms += s.finish();
        }
        std::vector<cache::CellKey> keys;
        keys.reserve(w.cells.size());
        for (const driver::SweepCell& cell : w.cells) {
            Scoped s(rec, "cache.key");
            keys.push_back(cache::cell_key(cell, store->salt()));
            coordinator_ms += s.finish();
        }
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            Scoped s(rec, "cache.lookup");
            std::optional<driver::SweepRow> row =
                store->lookup(keys[i], w.cells[i]);
            coordinator_ms += s.finish();
            if (!row)
                continue;
            hit[i] = 1;
            ++out.store_hits;
            if (check && (i >= reference.size() ||
                          row_csv(*row) != row_csv(reference[i])))
                out.fail(w.cells[i].label() +
                         ": stored row differs from the timed pass's row");
        }
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (hit[i])
                continue;
            const driver::SweepRow row = eng.compile(i);
            Scoped s(rec, "cache.insert");
            store->insert(keys[i], row);
            coordinator_ms += s.finish();
        }
        Scoped s(rec, "cache.flush");
        store->flush();
        out.store_bytes = store->approx_bytes();
        coordinator_ms += s.finish();
    }
    out.work_ms = ms_since(t0) - eng.check_ms();
    out.critical_path_ms = coordinator_ms + eng.longest_chain_ms();

    if (check) {
        // The served rows were compiled in set-up; recompile and check
        // them here, outside the replay's recorded work and counters.
        ReplayReport served;
        Recorder off(false);
        Engine verifier(w, off, true, reference, served);
        for (std::size_t i = 0; i < w.cells.size(); ++i)
            if (hit[i])
                (void)verifier.compile(i);
        out.cells += served.cells;
        out.failed += served.failed;
        out.failures.insert(out.failures.end(), served.failures.begin(),
                            served.failures.end());
        out.default_cells += served.default_cells;
        out.comm_reduction_sum += served.comm_reduction_sum;
        out.latency_reduction_sum += served.latency_reduction_sum;
    }
    return out;
}

} // namespace perfbench
