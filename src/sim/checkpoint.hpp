// Chunk-granular checkpoint journal for long Monte-Carlo sweeps.
//
// The executor's determinism rules make chunk aggregates the natural
// checkpoint unit: chunk boundaries depend only on (trials, chunk), per-trial
// seeds only on the trial index, and the final aggregate is the in-order
// merge of chunk partials. So a journal of completed (chunk_index, encoded
// partial) records — plus enough metadata to refuse a mismatched resume —
// is sufficient to reproduce the uninterrupted aggregate BIT-IDENTICALLY at
// any thread count: load the recorded partials, run only the missing chunks,
// merge everything in chunk-index order.
//
// File format (little-endian, the only byte order the toolchain targets):
//   header:  "ADBACKP1" | u64 base_seed | u64 seed_stride | u32 trials
//            | u32 chunk | u32 len + workload name | u32 len + scope string
//   record:  u32 0x41434b52 ("RKCA") | u32 chunk_index | u32 payload_len
//            | u64 fnv1a(payload) | payload bytes
// Records are appended with a single buffered write + flush per chunk. A
// crash mid-append leaves at most one torn tail record, which load()
// detects (short read or checksum mismatch) and truncates away — the
// write-ahead property: a record is either durably complete or ignored.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adba::sim {

/// Identity of a sweep, pinned in the journal header. A resume whose meta
/// differs in ANY field throws: partial aggregates from a different
/// scenario, seed, chunking, or stride are not mergeable.
struct CheckpointMeta {
    std::string workload;       ///< W::kName
    std::uint64_t base_seed = 0;
    std::uint64_t seed_stride = 0;  ///< W::kSeedStride
    std::uint32_t trials = 0;
    std::uint32_t chunk = 0;        ///< resolved (nonzero) chunk size
    std::string scope;              ///< the scenario's result-changing keys
                                    ///< (describe_spec over W::keys())

    friend bool operator==(const CheckpointMeta&, const CheckpointMeta&) = default;
};

/// Append-only journal of completed chunk aggregates. Thread-safe append
/// (the executor's workers finish chunks concurrently); load happens before
/// workers start.
class ChunkJournal {
public:
    /// Opens `path`. resume=false truncates and writes a fresh header.
    /// resume=true replays an existing journal: a missing or empty file
    /// starts fresh; a valid header must match `meta` exactly (actionable
    /// ContractViolation otherwise); complete records are collected and a
    /// torn tail is truncated off before reopening for append.
    ChunkJournal(std::string path, const CheckpointMeta& meta, bool resume);
    ~ChunkJournal();
    ChunkJournal(const ChunkJournal&) = delete;
    ChunkJournal& operator=(const ChunkJournal&) = delete;

    /// Chunk records recovered by a resuming open, in file order. Duplicate
    /// chunk indices keep the LAST record (a re-run chunk supersedes).
    const std::vector<std::pair<std::size_t, std::string>>& completed() const {
        return completed_;
    }

    /// Durably appends one completed chunk's encoded partial aggregate.
    void append(std::size_t chunk_index, const std::string& payload);

private:
    std::string path_;
    std::FILE* out_ = nullptr;
    std::mutex mu_;
    std::vector<std::pair<std::size_t, std::string>> completed_;
};

/// Refuses a journal path the run could not create, as the flags are read:
/// opens it for append (creating, never truncating) and removes it again if
/// it did not exist. Throws ChunkJournal's "cannot create checkpoint
/// journal" message.
void ensure_journal_path(const std::string& path);

// ---- byte-exact payload encoding helpers (used by encode_fields /
// decode_fields over each aggregate's field list, workload.hpp; doubles are
// moved as raw IEEE bits so decoded Samples merge bit-identically) ----

class BinWriter {
public:
    explicit BinWriter(std::string& out) : out_(out) {}
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    /// u64 count + raw double bits for each value, preserving order.
    void doubles(const std::vector<double>& xs);

private:
    std::string& out_;
};

class BinReader {
public:
    explicit BinReader(std::string_view in) : in_(in) {}
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    void doubles(std::vector<double>& xs);
    /// Whole payload consumed — decode must end exactly at the payload end.
    bool exhausted() const { return pos_ == in_.size(); }

private:
    std::string_view in_;
    std::size_t pos_ = 0;
};

}  // namespace adba::sim
