#include "common.hpp"

#include <cstdlib>
#include <cstring>

#include "driver/sweep.hpp"
#include "obs/decision.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace autocomm::bench {

std::optional<std::string>
csv_dir()
{
    const char* v = std::getenv("AUTOCOMM_CSV_DIR");
    if (v == nullptr || v[0] == '\0')
        return std::nullopt;
    return std::string(v);
}

bool
parse_obs_flag(ObsCli& cli, int argc, char** argv, int& i)
{
    if (std::strcmp(argv[i], "--trace-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--trace-out requires a value");
        cli.trace_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--stats-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--stats-out requires a value");
        cli.stats_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--explain-out") == 0) {
        if (i + 1 >= argc)
            support::fatal("--explain-out requires a value");
        cli.explain_path = argv[++i];
        return true;
    }
    if (std::strcmp(argv[i], "--explain-top") == 0) {
        if (i + 1 >= argc)
            support::fatal("--explain-top requires a value");
        cli.explain_top =
            driver::parse_int_list(argv[++i], "--explain-top", 0, 1000)
                .at(0);
        return true;
    }
    if (std::strcmp(argv[i], "--ring") == 0) {
        if (i + 1 >= argc)
            support::fatal("--ring requires a value");
        const std::vector<int> v =
            driver::parse_int_list(argv[++i], "--ring", 0, 1 << 24);
        cli.ring = static_cast<std::size_t>(v.at(0));
        return true;
    }
    if (std::strcmp(argv[i], "--sample-ms") == 0) {
        if (i + 1 >= argc)
            support::fatal("--sample-ms requires a value");
        cli.sample_ms =
            driver::parse_int_list(argv[++i], "--sample-ms", 1, 60'000)
                .at(0);
        return true;
    }
    return false;
}

void
apply_obs_cli(ObsCli& cli)
{
    if (cli.trace_path.empty()) {
        const char* env = std::getenv("AUTOCOMM_TRACE");
        if (env != nullptr && env[0] != '\0')
            cli.trace_path = env;
    }
    if (cli.ring.has_value())
        obs::set_ring_capacity(*cli.ring);
    if (cli.trace_path.empty() && cli.stats_path.empty() &&
        cli.explain_path.empty() && !cli.ring.has_value() &&
        cli.sample_ms == 0)
        return;
    obs::set_lane_name("main");
    obs::set_enabled(true);
    if (cli.sample_ms > 0)
        cli.sampler = std::make_unique<obs::ResourceSampler>(cli.sample_ms);
}

void
finish_obs_cli(ObsCli& cli)
{
    // The sampler thread records events; exports require quiescence.
    if (cli.sampler != nullptr)
        cli.sampler->stop();
    if (!cli.trace_path.empty() &&
        obs::write_chrome_trace(cli.trace_path))
        support::inform("wrote trace to %s", cli.trace_path.c_str());
    if (!cli.stats_path.empty() &&
        obs::write_stats_json(cli.stats_path))
        support::inform("wrote stats to %s", cli.stats_path.c_str());
    if (!cli.explain_path.empty() &&
        obs::write_explain_json(cli.explain_path,
                                static_cast<std::size_t>(cli.explain_top)))
        support::inform("wrote explain report to %s",
                        cli.explain_path.c_str());
}

} // namespace autocomm::bench
