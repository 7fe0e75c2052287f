/**
 * @file
 * leveldb-lite: an LSM-tree key-value store standing in for LevelDB
 * in the cloud-service scenario (paper section 6.5.2). Like LevelDB
 * it has a write-ahead log, an in-memory memtable that flushes to
 * sorted string tables (SSTs) with a sparse index, newest-first read
 * resolution, simple L0 compaction, and range scans that merge the
 * memtable with all tables.
 *
 * All I/O goes through the Vfs abstraction, so the same store runs
 * on m3fs (extent capabilities) and on the Linux model (tmpfs
 * syscalls) — exactly the comparison Figure 10 makes.
 */

#ifndef M3VSIM_WORKLOADS_KV_H_
#define M3VSIM_WORKLOADS_KV_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/vfs.h"

namespace m3v::workloads {

/** Sparse-index interval (records per index entry). */
constexpr unsigned kIndexInterval = 16;

/** Per-key-comparison cost (cycles). */
constexpr sim::Cycles kCmpCost = 14;

/** Per-record encode/decode cost (cycles). */
constexpr sim::Cycles kCodecCost = 60;

/** Store configuration. */
struct KvParams
{
    std::string dir = "/db";

    /** Memtable size limit before a flush. */
    std::size_t memtableLimit = 16 * 1024;

    /** Number of L0 tables that triggers a compaction. */
    unsigned compactionTrigger = 4;
};

/** Store statistics. */
struct KvStats
{
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t scans = 0;
    std::uint64_t flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t sstReads = 0;
};

/** The LSM key-value store. */
class KvStore
{
  public:
    explicit KvStore(Vfs &vfs, KvParams params = {});

    /** Create the directory and the write-ahead log. */
    sim::Task open();

    /** Insert or update a key. */
    sim::Task put(std::string key, std::string value);

    /** Look up a key (memtable, then SSTs newest-first). */
    sim::Task get(const std::string &key, std::string *value,
                  bool *found);

    /**
     * Range scan: up to @p count records with key >= @p start,
     * merged across the memtable and all tables.
     */
    sim::Task scan(const std::string &start, unsigned count,
                   std::vector<std::pair<std::string, std::string>>
                       *out);

    /** Flush and release the WAL. */
    sim::Task close();

    const KvStats &stats() const { return stats_; }
    unsigned tableCount() const
    {
        return static_cast<unsigned>(ssts_.size());
    }

  private:
    using Map = std::map<std::string, std::string>;

    sim::Task walAppend(const std::string &key,
                        const std::string &value);
    sim::Task flushMemtable();
    sim::Task maybeCompact();
    sim::Task writeSst(const Map &records, const std::string &path);
    sim::Task sstGet(const std::string &path, const std::string &key,
                     std::string *value, bool *found);
    sim::Task sstScanAll(const std::string &path, Map *out,
                         const std::string &start);

    Vfs &vfs_;
    KvParams params_;
    Map memtable_;
    std::size_t memBytes_ = 0;
    std::unique_ptr<VfsFile> wal_;
    std::vector<std::string> ssts_; ///< oldest first
    unsigned nextSst_ = 0;
    KvStats stats_;
};

} // namespace m3v::workloads

#endif // M3VSIM_WORKLOADS_KV_H_
