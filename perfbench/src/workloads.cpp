#include "workloads.hpp"

#include <chrono>
#include <stdexcept>

#include "cache/store.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace autocomm;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

driver::OptionSet
option_set(const std::string& name)
{
    std::optional<driver::OptionSet> o = driver::find_option_set(name);
    if (!o)
        throw std::invalid_argument("unknown option set " + name);
    return *o;
}

/** The noisy-network grid of design-space (and, plus BV, of
 * cache-resweep). */
driver::SweepGrid
design_grid(std::uint64_t seed)
{
    driver::SweepGrid g;
    g.families = {circuits::Family::QFT, circuits::Family::MCTR,
                  circuits::Family::QAOA, circuits::Family::RCA};
    g.qubit_counts = {100, 200};
    g.node_counts = {10};
    g.topologies = {hw::Topology::Ring, hw::Topology::Grid,
                    hw::Topology::Star};
    g.link_fidelities = {0.95, 0.99};
    g.target_fidelities = {0.99};
    g.link_bandwidths = {0, 2};
    g.link_fidelity_overrides = {driver::LinkValue{0, 1, 0.9}};
    g.option_sets = {option_set("default"), option_set("catonly")};
    g.seed = seed;
    return g;
}

} // namespace

Workload
make_workload(const std::string& name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    // OEE's convergence on QAOA-300 takes 0.74-1.68 s depending on the
    // random graph, more than the timing bounds allow, and it bounds both
    // workloads that compile QAOA-300. Those two keep the repo's canonical
    // instances (the paper tables are reproduced at seed 2022); the seed
    // varies the QAOA, BV and UCCSD circuits of the other two.
    if (name == "paper-repro" || name == "compile-300")
        seed = 2022;
    w.seed = seed;
    if (name == "paper-repro") {
        for (const driver::OptionSet& o : driver::builtin_option_sets()) {
            const bool is_default = o.name == "default";
            std::vector<driver::SweepCell> arm = driver::cells_from_specs(
                circuits::paper_suite(), o, seed, /*with_baseline=*/true,
                /*stats_only=*/false, /*with_gptp=*/is_default);
            w.cells.insert(w.cells.end(), arm.begin(), arm.end());
        }
    } else if (name == "design-space") {
        w.cells = design_grid(seed).cells();
    } else if (name == "cache-resweep") {
        driver::SweepGrid g = design_grid(seed);
        w.warm_cells = g.cells();
        g.families.push_back(circuits::Family::BV);
        w.cells = g.cells();
    } else if (name == "compile-300") {
        w.threads = 1;
        w.serial = true;
        for (circuits::Family f : {circuits::Family::QFT,
                                   circuits::Family::MCTR,
                                   circuits::Family::QAOA})
            for (partition::Mapper m : {partition::Mapper::Oee,
                                        partition::Mapper::Multilevel}) {
                driver::SweepCell cell;
                cell.spec = circuits::spec_for(f, 300, 30);
                cell.seed = seed;
                cell.partitioner = m;
                w.cells.push_back(cell);
            }
    } else {
        throw std::invalid_argument("unknown workload " + name);
    }
    return w;
}

Runner::Runner(const Workload& w, fs::path work_dir)
    : w_(w), dir_(std::move(work_dir)), template_(dir_ / "template")
{
    fs::remove_all(dir_);
    fs::create_directories(dir_);
}

Runner::~Runner()
{
    std::error_code ec;
    fs::remove_all(dir_, ec);
}

PassResult
Runner::setup()
{
    if (!w_.uses_store())
        return run_pass();
    fs::remove_all(template_);
    PassResult p;
    const auto t0 = Clock::now();
    {
        cache::ResultStore store(template_.string());
        driver::SweepOptions opts;
        opts.num_threads = w_.threads;
        opts.store = &store;
        p.rows = driver::run_sweep(w_.warm_cells, opts);
        store.flush();
    }
    p.wall_s = seconds_since(t0);
    for (const driver::SweepRow& r : p.rows)
        p.cell_ms.push_back(1e3 * r.compile_seconds);
    return p;
}

fs::path
Runner::fresh_store(const std::string& tag) const
{
    const fs::path dst = dir_ / tag;
    fs::remove_all(dst);
    fs::copy(template_, dst, fs::copy_options::recursive);
    return dst;
}

PassResult
Runner::run_pass()
{
    PassResult p;
    if (w_.serial) {
        const auto t0 = Clock::now();
        for (const driver::SweepCell& cell : w_.cells) {
            const auto c0 = Clock::now();
            p.rows.push_back(driver::run_cell(cell));
            p.cell_ms.push_back(1e3 * seconds_since(c0));
        }
        p.wall_s = seconds_since(t0);
        return p;
    }

    driver::SweepOptions opts;
    opts.num_threads = w_.threads;
    if (!w_.uses_store()) {
        const auto t0 = Clock::now();
        p.rows = driver::run_sweep(w_.cells, opts);
        p.wall_s = seconds_since(t0);
    } else {
        const fs::path dir = fresh_store("pass");
        const auto t0 = Clock::now();
        {
            cache::ResultStore store(dir.string());
            opts.store = &store;
            p.rows = driver::run_sweep(w_.cells, opts);
            store.flush();
            p.store_hits = store.stats().hits;
            p.store_misses = store.stats().misses;
        }
        p.wall_s = seconds_since(t0);
    }
    for (const driver::SweepRow& r : p.rows)
        p.cell_ms.push_back(1e3 * r.compile_seconds);
    return p;
}

} // namespace perfbench
