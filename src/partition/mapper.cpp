#include "partition/mapper.hpp"

#include <algorithm>
#include <cctype>

#include "support/log.hpp"

namespace autocomm::partition {

const char*
mapper_name(Mapper m)
{
    switch (m) {
    case Mapper::Oee:
        return "oee";
    case Mapper::Multilevel:
        return "multilevel";
    case Mapper::MultilevelOee:
        return "multilevel+oee";
    }
    support::fatal("mapper_name: bad mapper %d", static_cast<int>(m));
}

std::optional<Mapper>
parse_mapper(const std::string& name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    for (Mapper m : all_mappers())
        if (lower == mapper_name(m))
            return m;
    return std::nullopt;
}

std::vector<Mapper>
all_mappers()
{
    return {Mapper::Oee, Mapper::Multilevel, Mapper::MultilevelOee};
}

std::vector<NodeId>
partition_with(Mapper mapper, const InteractionGraph& g,
               const hw::Machine& m, const MapperOptions& opts)
{
    switch (mapper) {
    case Mapper::Oee:
        return oee_partition(g, m.capacities(), opts.oee);
    case Mapper::Multilevel:
        return multilevel::multilevel_partition(g, m);
    case Mapper::MultilevelOee:
        return oee_polish(
            g, multilevel::multilevel_partition(g, m),
            m.num_nodes, opts.polish);
    }
    support::fatal("partition_with: bad mapper %d",
                   static_cast<int>(mapper));
}

hw::QubitMapping
map_with(Mapper mapper, const InteractionGraph& g, const hw::Machine& m,
         const MapperOptions& opts)
{
    return hw::QubitMapping(partition_with(mapper, g, m, opts));
}

} // namespace autocomm::partition
