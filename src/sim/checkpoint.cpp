#include "sim/checkpoint.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "support/contracts.hpp"

namespace adba::sim {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'B', 'A', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kRecordMagic = 0x41434b52;  // "RKCA"

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// Reader over a fully slurped journal; all reads are bounds-checked and
// report failure instead of throwing, because a torn tail is an expected
// state, not an error.
struct FileReader {
    std::string_view in;
    std::size_t pos = 0;

    bool bytes(void* dst, std::size_t len) {
        if (in.size() - pos < len) return false;
        std::memcpy(dst, in.data() + pos, len);
        pos += len;
        return true;
    }
    bool u32(std::uint32_t& v) { return bytes(&v, sizeof v); }
    bool u64(std::uint64_t& v) { return bytes(&v, sizeof v); }
    bool str(std::string& s) {
        std::uint32_t len = 0;
        if (!u32(len) || in.size() - pos < len) return false;
        s.assign(in.data() + pos, len);
        pos += len;
        return true;
    }
};

void append_u32(std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_u64(std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_str(std::string& out, const std::string& s) {
    append_u32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

std::string encode_header(const CheckpointMeta& meta) {
    std::string h;
    h.append(kMagic, sizeof kMagic);
    append_u64(h, meta.base_seed);
    append_u64(h, meta.seed_stride);
    append_u32(h, meta.trials);
    append_u32(h, meta.chunk);
    append_str(h, meta.workload);
    append_str(h, meta.scope);
    return h;
}

std::string slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ADBA_EXPECTS_MSG(f != nullptr, "cannot open checkpoint journal '" + path +
                                       "' for resume");
    std::string data;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
    std::fclose(f);
    return data;
}

void describe_mismatch(std::string& why, const char* field, const std::string& have,
                       const std::string& want) {
    if (have == want) return;
    why += std::string(why.empty() ? "" : "; ") + field + " was " + have +
           ", this run wants " + want;
}

}  // namespace

ChunkJournal::ChunkJournal(std::string path, const CheckpointMeta& meta, bool resume)
    : path_(std::move(path)) {
    ADBA_EXPECTS_MSG(!path_.empty(), "checkpoint journal path must be non-empty");
    ADBA_EXPECTS_MSG(meta.chunk > 0, "checkpoint meta needs a resolved chunk size");

    const bool exists = std::filesystem::exists(path_);
    if (resume && exists && std::filesystem::file_size(path_) > 0) {
        const std::string data = slurp(path_);
        FileReader r{data};

        char magic[sizeof kMagic];
        if (!r.bytes(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof kMagic) != 0)
            throw ContractViolation("'" + path_ +
                                    "' is not an adba checkpoint journal (bad magic); "
                                    "refusing to resume — delete it or drop --resume to "
                                    "start fresh");

        CheckpointMeta have;
        const bool header_ok = r.u64(have.base_seed) && r.u64(have.seed_stride) &&
                               r.u32(have.trials) && r.u32(have.chunk) &&
                               r.str(have.workload) && r.str(have.scope);
        if (!header_ok)
            throw ContractViolation("checkpoint journal '" + path_ +
                                    "' has a truncated header; delete it or drop "
                                    "--resume to start fresh");
        if (have != meta) {
            std::string why;
            describe_mismatch(why, "workload", have.workload, meta.workload);
            describe_mismatch(why, "base_seed", std::to_string(have.base_seed),
                              std::to_string(meta.base_seed));
            describe_mismatch(why, "seed_stride", std::to_string(have.seed_stride),
                              std::to_string(meta.seed_stride));
            describe_mismatch(why, "trials", std::to_string(have.trials),
                              std::to_string(meta.trials));
            describe_mismatch(why, "chunk", std::to_string(have.chunk),
                              std::to_string(meta.chunk));
            describe_mismatch(why, "scenario", have.scope, meta.scope);
            throw ContractViolation(
                "checkpoint journal '" + path_ + "' belongs to a different sweep (" +
                why +
                "); partial aggregates are only mergeable into the identical "
                "sweep — rerun with the journal's parameters, or delete the "
                "journal / drop --resume to start fresh");
        }

        // Replay complete records; stop at the first torn one and truncate
        // the file back to the last durable byte.
        std::size_t good_end = r.pos;
        while (true) {
            FileReader probe = r;
            std::uint32_t magic32 = 0, ci = 0, len = 0;
            std::uint64_t sum = 0;
            if (!probe.u32(magic32) || magic32 != kRecordMagic || !probe.u32(ci) ||
                !probe.u32(len) || !probe.u64(sum) || data.size() - probe.pos < len)
                break;
            const std::string_view payload(data.data() + probe.pos, len);
            probe.pos += len;
            if (fnv1a(payload) != sum) break;
            completed_.emplace_back(ci, std::string(payload));
            r = probe;
            good_end = r.pos;
        }
        if (good_end != data.size())
            std::filesystem::resize_file(path_, good_end);

        out_ = std::fopen(path_.c_str(), "ab");
        if (out_ == nullptr)
            throw ContractViolation("cannot reopen checkpoint journal '" + path_ +
                                    "' for append: " + std::strerror(errno));
        return;
    }

    // Fresh journal (also the resume-from-nothing case).
    out_ = std::fopen(path_.c_str(), "wb");
    if (out_ == nullptr)
        throw ContractViolation("cannot create checkpoint journal '" + path_ +
                                "': " + std::strerror(errno));
    const std::string header = encode_header(meta);
    const std::size_t wrote = std::fwrite(header.data(), 1, header.size(), out_);
    ADBA_EXPECTS_MSG(wrote == header.size() && std::fflush(out_) == 0,
                     "short write creating checkpoint journal '" + path_ + "'");
}

ChunkJournal::~ChunkJournal() {
    if (out_) std::fclose(out_);
}

void ChunkJournal::append(std::size_t chunk_index, const std::string& payload) {
    std::string rec;
    rec.reserve(payload.size() + 20);
    append_u32(rec, kRecordMagic);
    append_u32(rec, static_cast<std::uint32_t>(chunk_index));
    append_u32(rec, static_cast<std::uint32_t>(payload.size()));
    append_u64(rec, fnv1a(payload));
    rec.append(payload);

    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t wrote = std::fwrite(rec.data(), 1, rec.size(), out_);
    ADBA_EXPECTS_MSG(wrote == rec.size() && std::fflush(out_) == 0,
                     "short write appending to checkpoint journal '" + path_ + "'");
}

// ------------------------------------------------------- payload primitives

void BinWriter::u32(std::uint32_t v) { append_u32(out_, v); }
void BinWriter::u64(std::uint64_t v) { append_u64(out_, v); }
void BinWriter::f64(double v) { append_u64(out_, std::bit_cast<std::uint64_t>(v)); }

void BinWriter::doubles(const std::vector<double>& xs) {
    u64(xs.size());
    for (double x : xs) f64(x);
}

std::uint32_t BinReader::u32() {
    std::uint32_t v = 0;
    ADBA_EXPECTS_MSG(in_.size() - pos_ >= sizeof v,
                     "checkpoint payload truncated (u32)");
    std::memcpy(&v, in_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
}

std::uint64_t BinReader::u64() {
    std::uint64_t v = 0;
    ADBA_EXPECTS_MSG(in_.size() - pos_ >= sizeof v,
                     "checkpoint payload truncated (u64)");
    std::memcpy(&v, in_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
}

double BinReader::f64() { return std::bit_cast<double>(u64()); }

void BinReader::doubles(std::vector<double>& xs) {
    const std::uint64_t count = u64();
    ADBA_EXPECTS_MSG(count <= (in_.size() - pos_) / sizeof(double),
                     "checkpoint payload truncated (sample block)");
    xs.reserve(xs.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) xs.push_back(f64());
}

}  // namespace adba::sim
