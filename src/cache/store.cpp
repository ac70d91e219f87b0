#include "cache/store.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <utility>

#include "cache/json.hpp"
#include "cache/serialize.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace fs = std::filesystem;

namespace autocomm::cache {

namespace {
/** Sum of approx_bytes() over live stores (see total_approx_bytes). */
std::atomic<long long> g_total_bytes{0};
} // namespace

std::size_t
ResultStore::total_approx_bytes()
{
    const long long v = g_total_bytes.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::size_t>(v) : 0;
}

void
ResultStore::adjust_bytes(long long delta)
{
    approx_bytes_ = static_cast<std::size_t>(
        static_cast<long long>(approx_bytes_) + delta);
    g_total_bytes.fetch_add(delta, std::memory_order_relaxed);
}

void
ResultStore::put_entry(const std::string& hex, Entry e)
{
    const auto it = entries_.find(hex);
    if (it != entries_.end())
        adjust_bytes(-static_cast<long long>(it->second.bytes));
    adjust_bytes(static_cast<long long>(e.bytes));
    entries_[hex] = std::move(e);
}

ResultStore::ResultStore(std::string dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        support::fatal("cache: cannot create store directory \"%s\": %s",
                       dir_.c_str(), ec.message().c_str());
    load();
}

ResultStore::~ResultStore()
{
    g_total_bytes.fetch_sub(static_cast<long long>(approx_bytes_),
                            std::memory_order_relaxed);
}

namespace {

/** The whole of @p path in one read; false when it cannot be read. */
bool
read_file(const fs::path& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return false;
    out.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(out.data(), static_cast<std::streamsize>(out.size()));
    return static_cast<bool>(in);
}

} // namespace

void
ResultStore::load()
{
    // Deterministic load order: segment file names sorted. Within the
    // store a key appears at most once per segment; across segments the
    // last one wins (identical salts imply identical rows anyway — the
    // compiler is deterministic — so this only matters for resilience).
    std::vector<fs::path> segments;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".jsonl")
            segments.push_back(entry.path());
    }
    std::sort(segments.begin(), segments.end());

    for (const fs::path& seg : segments) {
        std::string text;
        if (!read_file(seg, text)) {
            // Deliberately NOT added to seen_segments_: its rows never
            // made it into memory, so no rewrite covers them and a
            // corrupt-triggered retirement must leave the file alone.
            support::warn("cache: cannot read segment %s; skipping",
                          seg.string().c_str());
            continue;
        }
        seen_segments_.push_back(seg);
        std::size_t lineno = 0;
        for (std::size_t at = 0; at < text.size();) {
            std::size_t end = text.find('\n', at);
            if (end == std::string::npos)
                end = text.size();
            const std::string_view line(text.data() + at, end - at);
            at = end + 1;
            ++lineno;
            if (line.empty())
                continue;
            try {
                load_line(line);
            } catch (const support::UserError& ex) {
                // Dropped here, and the next flush rewrites this
                // process's view so the damaged line leaves the disk.
                support::warn("cache: %s:%zu: malformed entry (%s); "
                              "dropped", seg.string().c_str(), lineno,
                              ex.what());
                ++stats_.stale;
                saw_corrupt_ = true;
            }
        }
    }
    stats_.loaded = entries_.size();
}

void
ResultStore::load_line(std::string_view line)
{
    // The whole line is validated before anything is kept, the row
    // included: a row that fails to decode later is corrupt in content,
    // never malformed text, and compact() only rewrites validated rows.
    std::optional<std::string> key;
    std::optional<std::string> salt;
    std::optional<std::string> label;
    std::optional<std::string> canonical;
    std::optional<std::string_view> row;
    Entry e;
    JsonReader r(line);
    r.read_object([&](std::string_view name) {
        if (name == "key")
            key = r.read_string();
        else if (name == "salt")
            salt = r.read_string();
        else if (name == "label")
            label = r.read_string();
        else if (name == "canonical")
            canonical = r.read_string();
        // Optional for backward compatibility: pre-gc stores have no
        // timestamps (created_at stays 0 = "ancient"), and pre-last-hit
        // stores have no "hit" field.
        else if (name == "ts")
            e.created_at = r.read_int();
        else if (name == "hit")
            e.last_hit = r.read_int();
        else if (name == "row")
            row = r.raw();
        else
            r.skip();
    });
    r.finish();
    if (!key || !salt)
        support::fatal("entry has no key or salt");
    if (*salt != salt_) {
        // A different compiler salt: metrics semantics moved under this
        // entry, so it must not be served.
        ++stats_.stale;
        return;
    }
    if (!label || !canonical || !row)
        support::fatal("entry has no label, canonical key or row");
    e.label = std::move(*label);
    e.canonical = std::move(*canonical);
    e.row = std::string(*row);
    e.bytes = line.size() + 1;
    put_entry(*key, std::move(e));
}

std::optional<driver::SweepRow>
ResultStore::lookup(const CellKey& key, const driver::SweepCell& cell)
{
    obs::Span span("cache.lookup");
    const auto it = entries_.find(key.hex());
    if (it == entries_.end()) {
        ++stats_.misses;
        obs::count("cache.misses");
        return std::nullopt;
    }
    if (it->second.canonical != key.canonical) {
        // 128-bit hash collision (or a tampered store): never serve a
        // row for a different cell — recompiling is always safe.
        support::warn("cache: key %s collides (\"%s\" vs \"%s\"); "
                      "treating as a miss", key.hex().c_str(),
                      it->second.canonical.c_str(), key.canonical.c_str());
        ++stats_.misses;
        obs::count("cache.misses");
        return std::nullopt;
    }
    try {
        driver::SweepRow row = row_from_text(it->second.row, cell);
        ++stats_.hits;
        obs::count("cache.hits");
        it->second.last_hit = static_cast<long long>(std::time(nullptr));
        return row;
    } catch (const support::UserError& ex) {
        support::warn("cache: entry %s is corrupt (%s); recompiling",
                      key.hex().c_str(), ex.what());
        adjust_bytes(-static_cast<long long>(it->second.bytes));
        entries_.erase(it);
        saw_corrupt_ = true;
        ++stats_.stale;
        ++stats_.misses;
        obs::count("cache.stale");
        obs::count("cache.misses");
        return std::nullopt;
    }
}

void
ResultStore::insert(const CellKey& key, const driver::SweepRow& row)
{
    Entry e;
    e.canonical = key.canonical;
    e.label = row.cell.label();
    e.created_at = static_cast<long long>(std::time(nullptr));
    e.row = row_to_json(row).dump();
    e.pending = true;
    e.bytes = line_size(key.hex(), e);
    put_entry(key.hex(), std::move(e));
    ++stats_.inserted;
    obs::count("cache.inserted");
}

std::string
ResultStore::line_head(const std::string& hex, const Entry& e) const
{
    Json doc = Json::object();
    doc.set("key", Json::string(hex));
    doc.set("salt", Json::string(salt_));
    doc.set("label", Json::string(e.label));
    doc.set("canonical", Json::string(e.canonical));
    doc.set("ts", Json::number(e.created_at));
    // Omitted while zero so fresh-insert flush segments carry no session
    // clock and identical reruns stay byte-identical (content-hashed
    // segment names depend on it).
    if (e.last_hit != 0)
        doc.set("hit", Json::number(e.last_hit));
    std::string head = doc.dump();
    head.back() = ',';
    head += "\"row\":";
    return head;
}

std::string
ResultStore::entry_line(const std::string& hex, const Entry& e) const
{
    std::string line = line_head(hex, e);
    line += e.row;
    line += '}';
    return line;
}

std::size_t
ResultStore::line_size(const std::string& hex, const Entry& e) const
{
    return line_head(hex, e).size() + e.row.size() + 2;
}

void
ResultStore::write_atomic(const std::string& filename,
                          const std::string& contents) const
{
    const fs::path target = fs::path(dir_) / filename;
    // Process-unique temp name: segment names are content-hashed and so
    // never contended, but compact()'s fixed "store.jsonl" is — two
    // coordinators must at worst last-writer-win the rename, never
    // interleave writes into one temp file.
    const fs::path tmp = target.string() + ".tmp." +
                         std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << contents;
        out.flush();
        if (!out)
            support::fatal("cache: failed writing %s",
                           tmp.string().c_str());
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec)
        support::fatal("cache: failed renaming %s into place: %s",
                       tmp.string().c_str(), ec.message().c_str());
}

void
ResultStore::flush()
{
    obs::Span span("cache.flush");
    std::string contents;
    for (auto& [hex, e] : entries_) {
        // After a corrupt entry was dropped, appending only the pending
        // rows would not shadow it reliably: load order is segment-name
        // order, which is arbitrary for content-hashed names. Rewrite
        // this process's whole view instead and retire the segments it
        // was read from, so the corrupt line is gone for good — but
        // never touch segments that appeared after our load (concurrent
        // shard runs own those).
        if (!saw_corrupt_ && !e.pending)
            continue;
        contents += entry_line(hex, e);
        contents += '\n';
    }
    if (contents.empty()) {
        if (saw_corrupt_) {
            // Nothing left to rewrite (e.g. the store's only entry was
            // the corrupt one and its recompile failed transiently) —
            // still retire the read segments, or the corrupt line would
            // be reloaded and re-dropped on every run.
            std::error_code ec;
            for (const fs::path& seg : seen_segments_) {
                fs::remove(seg, ec);
                if (ec)
                    support::warn("cache: could not retire segment "
                                  "%s: %s", seg.string().c_str(),
                                  ec.message().c_str());
            }
            seen_segments_.clear();
            saw_corrupt_ = false;
        }
        return;
    }
    // Content-hashed segment names: deterministic (no clocks or RNG —
    // identical reruns rewrite the identical segment, which is
    // idempotent) and collision-free across concurrent shard processes
    // writing different rows into one directory.
    const std::string name =
        "seg-" + hash128(contents).hex().substr(0, 16) + ".jsonl";
    write_atomic(name, contents);
    const fs::path written = fs::path(dir_) / name;
    if (saw_corrupt_) {
        std::error_code ec;
        for (const fs::path& seg : seen_segments_) {
            if (seg == written)
                continue;
            fs::remove(seg, ec);
            if (ec)
                support::warn("cache: could not retire segment %s: %s",
                              seg.string().c_str(),
                              ec.message().c_str());
        }
        saw_corrupt_ = false;
        seen_segments_.assign(1, written);
    } else {
        // Keep the loaded segments on the retire list: a corrupt entry
        // from one of them may only be detected by a later lookup.
        seen_segments_.push_back(written);
    }
    for (auto& [hex, e] : entries_)
        e.pending = false;
}

void
ResultStore::compact()
{
    std::string contents;
    for (auto& [hex, e] : entries_) {
        const std::string line = entry_line(hex, e);
        contents += line;
        contents += '\n';
        // Re-measure against the canonical form just written: load-time
        // sizes came from raw segment lines, and lookups may have
        // refreshed last-hit since.
        adjust_bytes(static_cast<long long>(line.size() + 1) -
                     static_cast<long long>(e.bytes));
        e.bytes = line.size() + 1;
        e.pending = false;
    }
    const fs::path canonical = fs::path(dir_) / "store.jsonl";
    write_atomic("store.jsonl", contents);
    // Retire only the segments this process loaded or wrote. A segment
    // another process flushed after our load holds rows we never saw —
    // deleting it would destroy them; leaving it is always safe (it
    // simply loads alongside store.jsonl next open).
    std::error_code ec;
    for (const fs::path& seg : seen_segments_) {
        if (seg == canonical)
            continue;
        fs::remove(seg, ec);
        if (ec)
            support::warn("cache: could not remove old segment %s: %s",
                          seg.string().c_str(), ec.message().c_str());
    }
    saw_corrupt_ = false;
    seen_segments_.assign(1, canonical);
}

std::size_t
ResultStore::gc(double max_age_days)
{
    if (max_age_days < 0.0)
        support::fatal("cache: gc age must be non-negative (got %g days)",
                       max_age_days);
    const long long now = static_cast<long long>(std::time(nullptr));
    // Clamp in double space before the cast: an allowance reaching past
    // the epoch must not go negative (or, for absurd day counts,
    // overflow the cast), and timestamp-less legacy entries
    // (created_at == 0) are expired by ANY gc regardless of allowance.
    const double cutoff_d = std::max(
        0.0, static_cast<double>(now) - max_age_days * 86400.0);
    const long long cutoff = static_cast<long long>(cutoff_d);
    std::size_t dropped = 0;
    std::size_t dropped_bytes = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        // Age basis: the later of first-compile and last-hit, so entries
        // a warm sweep keeps serving outlive idle ones compiled the same
        // day. Legacy timestamp-less entries (both fields 0) expire on
        // any pass.
        const long long basis =
            std::max(it->second.created_at, it->second.last_hit);
        if (basis == 0 || basis < cutoff) {
            dropped_bytes += it->second.bytes;
            adjust_bytes(-static_cast<long long>(it->second.bytes));
            it = entries_.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }
    // Compaction rewrites the survivors and retires this process's
    // segments, so expired entries AND stale-salt lines (dropped at
    // load, but still on disk) are gone for good.
    compact();
    obs::count("cache.evictions", dropped);
    obs::count("cache.gc_evicted_entries", dropped);
    obs::count("cache.gc_evicted_bytes", dropped_bytes);
    obs::instant("cache.gc",
                 support::strprintf("age dropped=%zu bytes=%zu", dropped,
                                    dropped_bytes));
    return dropped;
}

std::size_t
ResultStore::gc_to_bytes(std::size_t max_bytes)
{
    // Size in the canonical compacted form — entry lines exactly as
    // compact() writes them (dump + newline). The live segment files may
    // transiently exceed this (duplicate shadowed lines, stale salts),
    // but the compact() below collapses the disk to the measured size.
    std::size_t total = 0;
    std::vector<std::pair<const std::string*, std::size_t>> sizes;
    sizes.reserve(entries_.size());
    for (const auto& [hex, e] : entries_) {
        const std::size_t n = line_size(hex, e);
        sizes.emplace_back(&hex, n);
        total += n;
    }

    std::size_t dropped = 0;
    std::size_t dropped_bytes = 0;
    if (total > max_bytes) {
        // Evict on the same age basis as gc(): the later of first-compile
        // and last-hit, oldest first, key order breaking ties so equal
        // stores evict identically.
        std::sort(sizes.begin(), sizes.end(),
                  [this](const auto& a, const auto& b) {
                      const Entry& ea = entries_.at(*a.first);
                      const Entry& eb = entries_.at(*b.first);
                      const long long ba =
                          std::max(ea.created_at, ea.last_hit);
                      const long long bb =
                          std::max(eb.created_at, eb.last_hit);
                      if (ba != bb)
                          return ba < bb;
                      return *a.first < *b.first;
                  });
        for (const auto& [hex, n] : sizes) {
            if (total <= max_bytes)
                break;
            const auto it = entries_.find(*hex);
            adjust_bytes(-static_cast<long long>(it->second.bytes));
            entries_.erase(it);
            total -= n;
            dropped_bytes += n;
            ++dropped;
        }
    }
    compact();
    obs::count("cache.evictions", dropped);
    obs::count("cache.gc_evicted_entries", dropped);
    obs::count("cache.gc_evicted_bytes", dropped_bytes);
    obs::instant("cache.gc",
                 support::strprintf("size dropped=%zu bytes=%zu", dropped,
                                    dropped_bytes));
    return dropped;
}

std::size_t
ResultStore::merge_from(const std::string& src_dir)
{
    if (!fs::is_directory(src_dir))
        support::fatal("cache: merge source \"%s\" is not a directory",
                       src_dir.c_str());
    // Opening loads with this store's salt, so stale source entries are
    // filtered by the same rule as local ones.
    ResultStore src(src_dir, salt_);
    std::size_t imported = 0;
    for (const auto& [hex, e] : src.entries_) {
        if (entries_.count(hex))
            continue;
        Entry copy = e;
        copy.pending = true;
        put_entry(hex, std::move(copy));
        ++imported;
    }
    stats_.inserted += imported;
    return imported;
}

std::string
ResultStore::stats_line() const
{
    return support::strprintf(
        "hits=%zu misses=%zu stale=%zu loaded=%zu inserted=%zu entries=%zu",
        stats_.hits, stats_.misses, stats_.stale, stats_.loaded,
        stats_.inserted, entries_.size());
}

std::vector<driver::SweepRow>
assemble(const std::vector<driver::SweepCell>& cells, ResultStore& store)
{
    std::vector<driver::SweepRow> rows;
    rows.reserve(cells.size());
    for (const driver::SweepCell& cell : cells) {
        const CellKey key = cell_key(cell, store.salt());
        std::optional<driver::SweepRow> row = store.lookup(key, cell);
        if (!row)
            support::fatal("cache: cell %s is not in the store at \"%s\" "
                           "(did every shard run with the same grid, "
                           "cache dir, and compiler salt?)",
                           cell.label().c_str(), store.dir().c_str());
        rows.push_back(std::move(*row));
    }
    return rows;
}

} // namespace autocomm::cache
