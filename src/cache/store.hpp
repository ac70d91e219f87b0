/**
 * @file
 * The persistent, content-addressed sweep-result store.
 *
 * On disk a store is a directory of append-only JSONL segments: every
 * flush() writes the rows added since the last one as a new
 * `seg-<contenthash>.jsonl` file via temp-file + atomic rename, so
 *
 *  - a crash mid-write never corrupts existing data (the half-written
 *    temp file is simply ignored on the next open);
 *  - concurrent shard runs can share one directory — each process only
 *    ever creates its own segments;
 *  - merging shard stores produced on different machines is file copy
 *    (or merge_from()) followed by compact(), which rewrites the union
 *    as one canonical key-sorted `store.jsonl`. Compaction/merge is a
 *    single-coordinator operation: run it from one process after the
 *    shard runs finish (concurrent compactors cannot corrupt the store
 *    — temp files are process-unique — but the canonical file is
 *    last-writer-wins).
 *
 * Each line records the entry's 128-bit key, the compiler salt it was
 * produced under, the human-readable cell label, the full canonical key
 * string (verified on lookup, so even a hash collision degrades to a
 * miss), the unix time the row was first compiled, the unix time it was
 * last served from the store (together the gc() age basis, preserved
 * across flush/compact/merge), and the serialized row, always the last
 * member.
 * Entries whose salt differs from the opener's are dropped at load time
 * and counted stale; on disk they linger until gc() or a rewrite-
 * triggering compaction drops their segments.
 *
 * Opening a store builds no JSON tree. Each segment is read in one go
 * and every line is validated whole by a JsonReader; the envelope
 * fields are decoded, and the row is kept as the exact text span it
 * occupied. A hit decodes that text straight into a SweepRow
 * (row_from_text), and flush()/compact() splice it back verbatim, so an
 * open store holds roughly its on-disk size and rewritten lines stay
 * byte-identical. A malformed line is dropped at open (stale) and the
 * next flush() rewrites the store without it; a well-formed row that
 * fails to decode takes the same path at lookup.
 *
 * The class is NOT thread-safe; run_sweep consults it only from the
 * coordinating thread (lookups before the pool starts, inserts after it
 * drains).
 */
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/key.hpp"
#include "driver/sweep.hpp"

namespace autocomm::cache {

/** Hit/miss bookkeeping of one store session. */
struct StoreStats
{
    std::size_t hits = 0;     ///< lookups served from the store
    std::size_t misses = 0;   ///< lookups that must compile
    std::size_t stale = 0;    ///< entries dropped (salt mismatch/corrupt)
    std::size_t loaded = 0;   ///< live entries read at open
    std::size_t inserted = 0; ///< rows added this session
};

/** A persistent map from CellKey to compiled SweepRow. */
class ResultStore
{
  public:
    /**
     * Open @p dir (created, parents included, when absent) and load
     * every `*.jsonl` segment. @p salt is the compiler salt entries must
     * carry to count as live (tests inject synthetic salts to prove a
     * bump invalidates; everything else uses kCompilerSalt).
     */
    explicit ResultStore(std::string dir,
                         std::string salt = kCompilerSalt);
    ~ResultStore();

    /** The row cached for @p key, rebuilt against the live @p cell;
     * nullopt (a miss) when absent, salt-stale, or corrupt. A hit
     * refreshes the entry's last-hit time, which gc() honours; the
     * refreshed time reaches disk on the next compact()/gc(), not on
     * flush() (flush segments stay clock-free so identical reruns stay
     * idempotent). */
    std::optional<driver::SweepRow> lookup(const CellKey& key,
                                           const driver::SweepCell& cell);

    /** Record a freshly compiled row (persisted on the next flush()). */
    void insert(const CellKey& key, const driver::SweepRow& row);

    /**
     * Persist rows inserted since the last flush as one new segment
     * (temp file + atomic rename; no-op when nothing is pending). When
     * a corrupt entry was dropped this session, the full in-memory view
     * is rewritten instead and the segments this process loaded are
     * retired — segments created by concurrent processes after our load
     * are never touched — so the corrupt line is gone for good.
     */
    void flush();

    /**
     * Rewrite this process's view of the store as one canonical
     * key-sorted `store.jsonl` segment and retire the segments it was
     * loaded from — the deterministic on-disk form shard merges
     * produce. Implies flush of pending rows. Segments created by
     * concurrent processes after our load are left in place (their rows
     * are not in our view; they load alongside `store.jsonl` next
     * open).
     */
    void compact();

    /**
     * Import every live entry of the store at @p src_dir (which must
     * exist) that this store does not already hold; imported entries are
     * pending until the next flush()/compact(). Returns the number
     * imported.
     */
    std::size_t merge_from(const std::string& src_dir);

    /**
     * Garbage-collect the store: drop every live entry neither compiled
     * nor served within the last @p max_age_days days — the age basis is
     * max(created_at, last_hit), so a warm entry that keeps getting hit
     * outlives an untouched entry of the same compile date (entries
     * written before timestamps existed count as infinitely old) — then
     * compact(), so expired rows, stale-salt lines, and retired segments
     * all leave the disk in one pass. The long-lived farm-store
     * maintenance entry point (`bench_sweep --cache-gc`). Returns the
     * number of entries dropped for age.
     */
    std::size_t gc(double max_age_days);

    /**
     * Shrink the store's serialized size to at most @p max_bytes by
     * evicting entries oldest-first on the gc() age basis
     * (max(created_at, last_hit), ties broken by key, so two stores with
     * equal content evict identically), then compact(). Size is measured
     * as the canonical compacted form — the sum of entry lines as
     * compact() would write them. The `bench_sweep --cache-max-mb`
     * entry point for capping a farm store's disk budget. Returns the
     * number of entries evicted.
     */
    std::size_t gc_to_bytes(std::size_t max_bytes);

    /** Live entries currently held. */
    std::size_t size() const { return entries_.size(); }

    /** Approximate serialized size of the live entries (sum of entry
     * lines as loaded/written; lookup-time last-hit refreshes are not
     * re-measured). Maintained incrementally; an observability figure,
     * not the gc_to_bytes() eviction measure. */
    std::size_t approx_bytes() const { return approx_bytes_; }

    /**
     * approx_bytes() summed over every live store in the process — the
     * obs::ResourceSampler's feed, readable from any thread without a
     * reference to the (often call-scoped) store instances.
     */
    static std::size_t total_approx_bytes();

    const StoreStats& stats() const { return stats_; }
    const std::string& dir() const { return dir_; }
    const std::string& salt() const { return salt_; }

    /** One-line human summary ("hits=12 misses=4 ..."). */
    std::string stats_line() const;

  private:
    struct Entry
    {
        std::string canonical;
        std::string label;
        /** Unix seconds the row was first compiled; 0 for entries
         * written before timestamps existed (treated as expired by any
         * gc()). */
        long long created_at = 0;
        /** Unix seconds the row was last served by lookup(); 0 when it
         * has never hit. gc() keys on max(created_at, last_hit), so hot
         * entries survive passes that retire idle ones. Persisted by
         * compact()/gc() only — flush() segments stay clock-free. */
        long long last_hit = 0;
        /** The row as row_to_json(row).dump() text, validated when it
         * was loaded; decoded by row_from_text() on each hit. */
        std::string row;
        /** Serialized line size (incl. newline) this entry contributes
         * to approx_bytes(); re-measured on compact(). */
        std::size_t bytes = 0;
        bool pending = false; ///< not yet persisted by flush()
    };

    void load();
    /** Parse one segment line and install its entry when the salt
     * matches; throws support::UserError on a malformed line. */
    void load_line(std::string_view line);
    /** An entry's line up to and including `"row":` — the envelope
     * members, then the row text spliced in last, verbatim. */
    std::string line_head(const std::string& hex, const Entry& e) const;
    std::string entry_line(const std::string& hex, const Entry& e) const;
    /** entry_line(hex, e).size() + 1 (the newline), without the row
     * copy. */
    std::size_t line_size(const std::string& hex, const Entry& e) const;
    void write_atomic(const std::string& filename,
                      const std::string& contents) const;
    /** Install @p e under @p hex, keeping the byte accounting straight
     * when the key replaces an existing entry. */
    void put_entry(const std::string& hex, Entry e);
    /** Track an approx_bytes() change on this store and process-wide. */
    void adjust_bytes(long long delta);

    std::string dir_;
    std::string salt_;
    /** hex key -> entry; std::map so compaction is key-sorted for free. */
    std::map<std::string, Entry> entries_;
    std::size_t approx_bytes_ = 0;
    StoreStats stats_;
    /** Segments this process loaded or wrote — the only files a
     * corrupt-triggered rewrite may retire (see flush). */
    std::vector<std::filesystem::path> seen_segments_;
    /** A corrupt row was dropped; the next flush rewrites (see flush). */
    bool saw_corrupt_ = false;
};

/**
 * Assemble the rows of @p cells entirely from @p store — the `--merge`
 * endgame: after shard runs (or a cold run) populated the store, this
 * reproduces the full sweep's rows, in cell order, without compiling
 * anything. Throws support::UserError naming the first missing cell.
 */
std::vector<driver::SweepRow>
assemble(const std::vector<driver::SweepCell>& cells, ResultStore& store);

} // namespace autocomm::cache
