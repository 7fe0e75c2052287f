#include "workloads/kv.h"

#include <cstring>

#include "sim/log.h"

namespace m3v::workloads {

namespace {

void
put16(Bytes &b, std::uint16_t v)
{
    b.push_back(static_cast<std::uint8_t>(v & 0xff));
    b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
put32(Bytes &b, std::uint32_t v)
{
    put16(b, static_cast<std::uint16_t>(v & 0xffff));
    put16(b, static_cast<std::uint16_t>(v >> 16));
}

std::uint16_t
get16(const Bytes &b, std::size_t off)
{
    return static_cast<std::uint16_t>(b.at(off) |
                                      (b.at(off + 1) << 8));
}

std::uint32_t
get32(const Bytes &b, std::size_t off)
{
    return static_cast<std::uint32_t>(get16(b, off)) |
           (static_cast<std::uint32_t>(get16(b, off + 2)) << 16);
}

void
putRecord(Bytes &b, const std::string &key, const std::string &val)
{
    put16(b, static_cast<std::uint16_t>(key.size()));
    put16(b, static_cast<std::uint16_t>(val.size()));
    b.insert(b.end(), key.begin(), key.end());
    b.insert(b.end(), val.begin(), val.end());
}

/** Parse one record at @p off; returns the next offset. */
std::size_t
getRecord(const Bytes &b, std::size_t off, std::string *key,
          std::string *val)
{
    std::uint16_t klen = get16(b, off);
    std::uint16_t vlen = get16(b, off + 2);
    off += 4;
    key->assign(b.begin() + static_cast<long>(off),
                b.begin() + static_cast<long>(off + klen));
    off += klen;
    val->assign(b.begin() + static_cast<long>(off),
                b.begin() + static_cast<long>(off + vlen));
    return off + vlen;
}

/** Read the whole file through the Vfs in page-size chunks. */
sim::Task
readAll(VfsFile &f, Bytes *out)
{
    out->clear();
    co_await f.seek(0);
    for (;;) {
        Bytes chunk;
        bool ok = false;
        co_await f.read(4096, &chunk, &ok);
        if (!ok || chunk.empty())
            break;
        out->insert(out->end(), chunk.begin(), chunk.end());
    }
}

} // namespace

KvStore::KvStore(Vfs &vfs, KvParams params)
    : vfs_(vfs), params_(std::move(params))
{
}

sim::Task
KvStore::open()
{
    bool ok = false;
    co_await vfs_.mkdir(params_.dir, &ok);
    co_await vfs_.open(params_.dir + "/wal",
                       kVfsW | kVfsCreate | kVfsTrunc, &wal_, &ok);
    if (!ok)
        sim::panic("kv: cannot create WAL");
}

sim::Task
KvStore::walAppend(const std::string &key, const std::string &value)
{
    Bytes rec;
    putRecord(rec, key, value);
    co_await vfs_.thread().compute(kCodecCost);
    bool ok = false;
    co_await wal_->write(std::move(rec), &ok);
    if (!ok)
        sim::panic("kv: WAL append failed");
}

sim::Task
KvStore::put(std::string key, std::string value)
{
    stats_.puts++;
    co_await walAppend(key, value);
    // Memtable insert: ~log2(n) comparisons.
    std::size_t n = memtable_.size() + 1;
    sim::Cycles cmp = kCmpCost;
    sim::Cycles cost = cmp;
    while (n > 1) {
        cost += cmp;
        n >>= 1;
    }
    co_await vfs_.thread().compute(cost);
    memBytes_ += key.size() + value.size() + 8;
    memtable_[std::move(key)] = std::move(value);
    if (memBytes_ >= params_.memtableLimit) {
        co_await flushMemtable();
        co_await maybeCompact();
    }
}

sim::Task
KvStore::get(const std::string &key, std::string *value, bool *found)
{
    stats_.gets++;
    std::size_t n = memtable_.size() + 1;
    sim::Cycles cost = kCmpCost;
    while (n > 1) {
        cost += kCmpCost;
        n >>= 1;
    }
    co_await vfs_.thread().compute(cost);
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
        *value = it->second;
        *found = true;
        co_return;
    }
    // Newest table first.
    for (auto rit = ssts_.rbegin(); rit != ssts_.rend(); ++rit) {
        bool hit = false;
        co_await sstGet(*rit, key, value, &hit);
        if (hit) {
            *found = true;
            co_return;
        }
    }
    *found = false;
}

sim::Task
KvStore::scan(const std::string &start, unsigned count,
              std::vector<std::pair<std::string, std::string>> *out)
{
    stats_.scans++;
    // Merge the memtable with every table: scans walk through large
    // parts of the data (section 6.5.2).
    Map merged;
    for (const std::string &path : ssts_)
        co_await sstScanAll(path, &merged, start);
    for (auto it = memtable_.lower_bound(start);
         it != memtable_.end(); ++it)
        merged[it->first] = it->second;

    co_await vfs_.thread().compute(
        static_cast<sim::Cycles>(merged.size()) * kCmpCost);
    out->clear();
    for (auto &kv : merged) {
        if (out->size() >= count)
            break;
        out->emplace_back(kv.first, kv.second);
    }
}

sim::Task
KvStore::flushMemtable()
{
    if (memtable_.empty())
        co_return;
    stats_.flushes++;
    std::string path =
        params_.dir + "/sst" + std::to_string(nextSst_++);
    co_await writeSst(memtable_, path);
    ssts_.push_back(path);
    memtable_.clear();
    memBytes_ = 0;

    // Reset the WAL.
    co_await wal_->close();
    bool ok = false;
    co_await vfs_.open(params_.dir + "/wal",
                       kVfsW | kVfsCreate | kVfsTrunc, &wal_, &ok);
}

sim::Task
KvStore::maybeCompact()
{
    if (ssts_.size() < params_.compactionTrigger)
        co_return;
    stats_.compactions++;
    // Merge all L0 tables into one (oldest-to-newest so newer values
    // win).
    Map merged;
    for (const std::string &path : ssts_)
        co_await sstScanAll(path, &merged, "");
    std::string path =
        params_.dir + "/sst" + std::to_string(nextSst_++);
    co_await writeSst(merged, path);
    bool ok = false;
    for (const std::string &old : ssts_)
        co_await vfs_.unlink(old, &ok);
    ssts_.clear();
    ssts_.push_back(path);
}

sim::Task
KvStore::writeSst(const Map &records, const std::string &path)
{
    // Layout: records | index (key16 -> offset) | footer
    // footer: [u32 index_off][u32 index_entries][u32 record_count]
    Bytes data;
    std::vector<std::pair<std::string, std::uint32_t>> index;
    unsigned i = 0;
    for (const auto &[key, val] : records) {
        if (i % kIndexInterval == 0)
            index.emplace_back(
                key, static_cast<std::uint32_t>(data.size()));
        putRecord(data, key, val);
        i++;
    }
    auto index_off = static_cast<std::uint32_t>(data.size());
    for (const auto &[key, off] : index) {
        put16(data, static_cast<std::uint16_t>(key.size()));
        data.insert(data.end(), key.begin(), key.end());
        put32(data, off);
    }
    put32(data, index_off);
    put32(data, static_cast<std::uint32_t>(index.size()));
    put32(data, static_cast<std::uint32_t>(records.size()));

    co_await vfs_.thread().compute(
        static_cast<sim::Cycles>(records.size()) * kCodecCost);

    std::unique_ptr<VfsFile> f;
    bool ok = false;
    co_await vfs_.open(path, kVfsW | kVfsCreate | kVfsTrunc, &f,
                       &ok);
    if (!ok)
        sim::panic("kv: cannot create %s", path.c_str());
    for (std::size_t off = 0; off < data.size(); off += 4096) {
        std::size_t n = std::min<std::size_t>(4096,
                                              data.size() - off);
        co_await f->write(
            Bytes(data.begin() + static_cast<long>(off),
                  data.begin() + static_cast<long>(off + n)),
            &ok);
    }
    co_await f->close();
}

sim::Task
KvStore::sstGet(const std::string &path, const std::string &key,
                std::string *value, bool *found)
{
    stats_.sstReads++;
    *found = false;
    std::unique_ptr<VfsFile> f;
    bool ok = false;
    co_await vfs_.open(path, kVfsR, &f, &ok);
    if (!ok)
        sim::panic("kv: cannot open %s", path.c_str());

    VfsStat st;
    co_await vfs_.stat(path, &st);
    if (st.size < 12) {
        co_await f->close();
        co_return;
    }

    // Footer.
    co_await f->seek(st.size - 12);
    Bytes footer;
    co_await f->read(12, &footer, &ok);
    std::uint32_t index_off = get32(footer, 0);
    std::uint32_t index_entries = get32(footer, 4);

    // Index region.
    co_await f->seek(index_off);
    Bytes index;
    std::size_t index_len =
        static_cast<std::size_t>(st.size - 12 - index_off);
    while (index.size() < index_len) {
        Bytes chunk;
        co_await f->read(
            std::min<std::size_t>(4096, index_len - index.size()),
            &chunk, &ok);
        if (chunk.empty())
            break;
        index.insert(index.end(), chunk.begin(), chunk.end());
    }

    // Find the last index key <= key (linear over the sparse index).
    std::uint32_t block_off = 0;
    bool any = false;
    std::size_t pos = 0;
    for (std::uint32_t e = 0; e < index_entries; e++) {
        std::uint16_t klen = get16(index, pos);
        std::string ikey(
            index.begin() + static_cast<long>(pos + 2),
            index.begin() + static_cast<long>(pos + 2 + klen));
        std::uint32_t off = get32(index, pos + 2 + klen);
        pos += 2 + klen + 4;
        co_await vfs_.thread().compute(kCmpCost);
        if (ikey <= key) {
            block_off = off;
            any = true;
        } else {
            break;
        }
    }
    if (!any) {
        co_await f->close();
        co_return;
    }

    // Read one index block's worth of records and search.
    co_await f->seek(block_off);
    Bytes block;
    co_await f->read(4096, &block, &ok);
    std::size_t off = 0;
    for (unsigned r = 0; r < kIndexInterval && off + 4 <= block.size();
         r++) {
        std::string k, v;
        std::size_t next = off;
        std::uint16_t klen = get16(block, off);
        std::uint16_t vlen = get16(block, off + 2);
        if (off + 4 + klen + vlen > block.size())
            break;
        next = getRecord(block, off, &k, &v);
        co_await vfs_.thread().compute(kCmpCost + kCodecCost);
        if (k == key) {
            *value = std::move(v);
            *found = true;
            break;
        }
        if (k > key)
            break;
        // Stop before running into the index region.
        if (block_off + next >= index_off)
            break;
        off = next;
    }
    co_await f->close();
}

sim::Task
KvStore::sstScanAll(const std::string &path, Map *out,
                    const std::string &start)
{
    stats_.sstReads++;
    std::unique_ptr<VfsFile> f;
    bool ok = false;
    co_await vfs_.open(path, kVfsR, &f, &ok);
    if (!ok)
        sim::panic("kv: cannot open %s", path.c_str());
    Bytes data;
    co_await readAll(*f, &data);
    co_await f->close();
    if (data.size() < 12)
        co_return;
    std::uint32_t index_off = get32(data, data.size() - 12);
    std::uint32_t records = get32(data, data.size() - 4);

    co_await vfs_.thread().compute(
        static_cast<sim::Cycles>(records) * (kCodecCost + kCmpCost));
    std::size_t off = 0;
    for (std::uint32_t r = 0; r < records && off < index_off; r++) {
        std::string k, v;
        off = getRecord(data, off, &k, &v);
        if (k >= start)
            (*out)[std::move(k)] = std::move(v);
    }
}

sim::Task
KvStore::close()
{
    co_await flushMemtable();
    if (wal_) {
        co_await wal_->close();
        wal_.reset();
    }
}

} // namespace m3v::workloads
