/**
 * @file
 * Partitioner comparison bench: OEE vs the multilevel pipeline (and the
 * multilevel+oee hybrid) across circuit families, machine shapes, and
 * link topologies. Not a paper table — this measures the *compiler's
 * mapping stage*: wall time, flat cut size, hops-weighted cut, and the
 * machine's full hop/fidelity-weighted cut for every (scenario,
 * partitioner) pair.
 *
 *   bench_partition                                    # default grid
 *   bench_partition --families QAOA --qubits 300 --nodes 10 \
 *       --topology ring,grid --reps 3 --csv partition.csv
 *
 * Wall times are the minimum over --reps runs (the usual denoising for
 * wall-clock microbenchmarks); cuts are deterministic and identical
 * across reps. The `speedup` column is relative to OEE in the same
 * scenario (1.0 for OEE itself; 0 when OEE is not in the partitioner
 * list).
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "driver/sweep.hpp"
#include "multilevel/cost.hpp"
#include "obs/trace.hpp"
#include "partition/interaction_graph.hpp"
#include "partition/mapper.hpp"
#include "qir/decompose.hpp"
#include "support/csv.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace {

using namespace autocomm;
using clock_type = std::chrono::steady_clock;

double
ms_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
        .count();
}

int
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --families LIST  comma list of MCTR,RCA,QFT,BV,QAOA,UCCSD "
        "(default QFT,QAOA)\n"
        "  --qubits LIST    circuit widths (default 100,300)\n"
        "  --nodes LIST     node counts (default 10)\n"
        "  --shape LIST     machine shapes, ';'-separated; replaces "
        "--nodes\n"
        "  --topology LIST  all_to_all,ring,grid,star (default "
        "all_to_all,ring,grid)\n"
        "  --partitioner LIST\n"
        "                   oee,multilevel,multilevel+oee (default all)\n"
        "  --seed S         circuit-generation seed (default 2022)\n"
        "  --reps N         timing repetitions, min reported (default 3)\n"
        "  --csv PATH       write the comparison as CSV\n"
        "  --trace-out FILE write a Chrome trace-event JSON of the "
        "partition spans\n"
        "  --stats-out FILE write partition latency percentiles as JSON\n"
        "  --explain-out FILE write the decision explain report as "
        "JSON\n"
        "  --explain-top N  payload samples kept per decision bucket\n"
        "  --ring N         keep only the last N trace events per thread "
        "(0 = all)\n"
        "  --sample-ms N    sample RSS/pool gauges every N ms\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<circuits::FamilySpec> families = {circuits::Family::QFT,
                                                  circuits::Family::QAOA};
    std::vector<int> qubits = {100, 300};
    std::vector<int> nodes = {10};
    std::vector<std::string> shapes;
    std::vector<hw::Topology> topologies = {hw::Topology::AllToAll,
                                            hw::Topology::Ring,
                                            hw::Topology::Grid};
    std::vector<partition::Mapper> mappers = partition::all_mappers();
    std::uint64_t seed = 2022;
    int reps = 3;
    std::string csv_path;
    bench::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                support::fatal("%s requires a value", arg.c_str());
            return argv[++i];
        };
        try {
            if (arg == "--families") {
                families = driver::parse_family_list(value(), "--families");
            } else if (arg == "--qubits") {
                qubits = driver::parse_int_list(value(), "--qubits");
            } else if (arg == "--nodes") {
                nodes = driver::parse_int_list(value(), "--nodes");
            } else if (arg == "--shape") {
                shapes = driver::parse_shape_list(value(), "--shape");
            } else if (arg == "--topology") {
                topologies =
                    driver::parse_topology_list(value(), "--topology");
            } else if (arg == "--partitioner") {
                mappers =
                    driver::parse_mapper_list(value(), "--partitioner");
            } else if (arg == "--seed") {
                seed = static_cast<std::uint64_t>(
                    driver::parse_int_list(value(), "--seed", 0,
                                           1'000'000'000)
                        .at(0));
            } else if (arg == "--reps") {
                reps = driver::parse_int_list(value(), "--reps", 1, 1000)
                           .at(0);
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (bench::parse_obs_flag(obs_cli, argc, argv, i)) {
                // handled
            } else {
                return usage(argv[0]);
            }
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }

    // One cell per (family, qubits, machine, topology), in that order;
    // each machine is the sweep driver's (driver::machine_for).
    driver::SweepGrid grid;
    grid.families = families;
    grid.qubit_counts = qubits;
    grid.node_counts = nodes;
    grid.shapes = shapes;
    grid.topologies = topologies;
    grid.seed = seed;

    bench::apply_obs_cli(obs_cli);

    support::Table t({"Scenario", "Partitioner", "Wall (ms)", "Flat cut",
                      "Hops cut", "Weighted cut", "Speedup"});
    support::CsvWriter csv({"name", "qubits", "nodes", "topology", "shape",
                            "partitioner", "wall_ms", "flat_cut",
                            "hops_cut", "weighted_cut", "speedup"});

    int failures = 0;
    // The interaction graph is machine-independent: build it once per
    // (family, qubits).
    std::unique_ptr<partition::InteractionGraph> graph;
    circuits::BenchmarkSpec graph_spec;
    for (const driver::SweepCell& cell : grid.cells()) {
        const circuits::BenchmarkSpec& spec = cell.spec;
        if (spec.family != graph_spec.family ||
            spec.num_qubits != graph_spec.num_qubits ||
            spec.qasm_path != graph_spec.qasm_path) {
            graph.reset();
            graph_spec = spec;
        }
        hw::Machine machine;
        try {
            machine = driver::machine_for(cell);
            if (graph == nullptr)
                graph = std::make_unique<partition::InteractionGraph>(
                    partition::InteractionGraph::from_circuit(qir::decompose(
                        circuits::make_benchmark(spec, cell.seed))));
        } catch (const support::UserError& e) {
            std::fprintf(stderr, "error: %s: %s\n", spec.label().c_str(),
                         e.what());
            ++failures;
            continue;
        }

        const multilevel::CostModel hops =
            multilevel::CostModel::hops(machine);
        const multilevel::CostModel full =
            multilevel::CostModel::from_machine(machine);

        std::string scenario = spec.label();
        if (!cell.shape.empty())
            scenario += "@" + cell.shape;
        scenario += std::string("+") + hw::topology_name(cell.topology);

        // Time every partitioner before emitting rows: the speedup column
        // is relative to OEE regardless of where it appears in the
        // --partitioner list.
        struct Timed
        {
            partition::Mapper mapper;
            std::vector<NodeId> part;
            double best_ms = 0.0;
        };
        std::vector<Timed> timed;
        double oee_ms = 0.0;
        for (partition::Mapper m : mappers) {
            Timed run{m, {}, 0.0};
            try {
                for (int r = 0; r < reps; ++r) {
                    const auto t0 = clock_type::now();
                    obs::Span span("partition",
                                   scenario + "/" + partition::mapper_name(m));
                    run.part = partition::partition_with(m, *graph, machine);
                    const double ms_r = ms_since(t0);
                    if (r == 0 || ms_r < run.best_ms)
                        run.best_ms = ms_r;
                }
                hw::QubitMapping(run.part).validate(machine);
            } catch (const support::UserError& e) {
                std::fprintf(stderr, "error: %s/%s: %s\n", scenario.c_str(),
                             partition::mapper_name(m), e.what());
                ++failures;
                continue;
            }
            if (m == partition::Mapper::Oee)
                oee_ms = run.best_ms;
            timed.push_back(std::move(run));
        }
        for (const Timed& run : timed) {
            const partition::Mapper m = run.mapper;
            const double best_ms = run.best_ms;
            const std::vector<NodeId>& part = run.part;
            const double speedup =
                m == partition::Mapper::Oee
                    ? (oee_ms > 0.0 ? 1.0 : 0.0)
                    : (oee_ms > 0.0 && best_ms > 0.0 ? oee_ms / best_ms
                                                     : 0.0);

            const long flat_cut = graph->cut_weight(part);
            const double hops_cut =
                multilevel::weighted_cut(*graph, part, hops);
            const double full_cut =
                multilevel::weighted_cut(*graph, part, full);

            t.start_row();
            t.add(scenario);
            t.add(partition::mapper_name(m));
            t.add(best_ms, 2);
            t.add(static_cast<long long>(flat_cut));
            t.add(hops_cut, 0);
            t.add(full_cut, 0);
            t.add(speedup, 1);

            csv.start_row();
            csv.add(spec.label());
            csv.add(static_cast<long long>(spec.num_qubits));
            csv.add(static_cast<long long>(spec.num_nodes));
            csv.add(std::string(hw::topology_name(cell.topology)));
            csv.add(cell.shape);
            csv.add(std::string(partition::mapper_name(m)));
            csv.add(best_ms);
            csv.add(static_cast<long long>(flat_cut));
            csv.add(hops_cut);
            csv.add(full_cut);
            csv.add(speedup);
        }
    }
    t.print();

    if (!csv_path.empty()) {
        csv.write_file(csv_path);
    } else if (auto dir = bench::csv_dir()) {
        csv.write_file(*dir + "/partition.csv");
    }
    bench::finish_obs_cli(obs_cli);
    return failures == 0 ? 0 : 1;
}
