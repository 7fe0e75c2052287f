/**
 * @file
 * The m3fs on-storage metadata model: an extent-based in-memory file
 * system (paper section 6.3). Files are sequences of extents —
 * contiguous block runs of up to max_extent_blocks blocks (the paper's
 * benchmarks cap extents at 64 blocks). Directories map names to
 * inodes. A bitmap allocator hands out contiguous runs.
 *
 * Every metadata operation reports a modelled cycle cost (directory
 * scans, bitmap scans) that the service charges to its core.
 */

#ifndef M3VSIM_SERVICES_FS_IMAGE_H_
#define M3VSIM_SERVICES_FS_IMAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.h"

namespace m3v::services {

/** Inode number. */
using Ino = std::uint32_t;
constexpr Ino kNoIno = ~0u;

/** A contiguous run of blocks. */
struct Extent
{
    std::uint32_t start = 0;
    std::uint32_t count = 0;
};

/** An inode: directory flag, size, extent list. */
struct Inode
{
    Ino ino = kNoIno;
    bool dir = false;
    std::uint64_t size = 0;
    std::vector<Extent> extents;
};

/** The file-system image (metadata; file content lives in DRAM). */
class FsImage
{
  public:
    FsImage(std::size_t total_blocks, std::size_t block_size = 4096,
            std::uint32_t max_extent_blocks = 64);

    std::size_t blockSize() const { return blockSize_; }
    std::size_t freeBlocks() const { return free_; }

    /** Resolve an absolute path ("/a/b"); kNoIno if missing. */
    Ino lookup(const std::string &path);

    /** Create a file or directory; parent must exist. */
    Ino create(const std::string &path, bool dir);

    /** Remove a file (or empty directory). */
    bool unlink(const std::string &path);

    Inode *inode(Ino ino);

    /** Directory entry at @p idx (name-sorted); false past the end. */
    bool entryAt(Ino dir, std::size_t idx, std::string *name,
                 Ino *child);

    std::size_t entryCount(Ino dir) const;

    /**
     * Allocate a fresh extent of up to @p want_blocks (capped by
     * max_extent_blocks, at least one block) and append it to the
     * inode. Returns false when full.
     */
    bool appendExtent(Ino ino, Extent *out,
                      std::uint32_t want_blocks = ~0u);

    /** Free all blocks of a file and reset its size. */
    void truncate(Ino ino);

    /**
     * Modelled cycle cost of operations performed since the last
     * call (directory walks, bitmap scans). The service charges this
     * to its core and the counter resets.
     */
    sim::Cycles takeOpCost();

  private:
    std::vector<std::string> splitPath(const std::string &path) const;
    Ino lookupIn(Ino dir, const std::string &name);
    bool allocRun(std::uint32_t want, Extent *out);

    std::size_t blockSize_;
    std::uint32_t maxExtent_;
    std::vector<bool> bitmap_;
    std::size_t free_;
    std::size_t scanHint_ = 0;

    Ino nextIno_ = 1;
    std::map<Ino, Inode> inodes_;
    std::map<Ino, std::map<std::string, Ino>> dirs_;

    sim::Cycles opCost_ = 0;
};

} // namespace m3v::services

#endif // M3VSIM_SERVICES_FS_IMAGE_H_
