#include "storage/wal.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace caesar::storage {

namespace fs = std::filesystem;

SyncMode parse_sync_mode(const std::string& name) {
  if (name == "batched") return SyncMode::kBatched;
  if (name == "always") return SyncMode::kAlways;
  throw std::invalid_argument("unknown sync mode: " + name +
                              " (expected batched|always)");
}

std::string to_string(SyncMode m) {
  switch (m) {
    case SyncMode::kBatched:
      return "batched";
    case SyncMode::kAlways:
      return "always";
  }
  return "?";
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Parses "wal-<seq>.log"; returns false for anything else.
bool parse_segment_name(const std::string& name, std::uint64_t* seq) {
  if (name.size() < 9 || name.rfind("wal-", 0) != 0) return false;
  if (name.substr(name.size() - 4) != ".log") return false;
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

std::vector<std::pair<std::uint64_t, fs::path>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> segs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_segment_name(entry.path().filename().string(), &seq)) {
      segs.emplace_back(seq, entry.path());
    }
  }
  std::sort(segs.begin(), segs.end());
  return segs;
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Wal::Wal(std::string dir, const StorageConfig& cfg)
    : dir_(std::move(dir)), cfg_(cfg) {
  fs::create_directories(dir_);
  std::uint64_t next = 1;
  for (const auto& [seq, path] : list_segments(dir_)) {
    next = std::max(next, seq + 1);
  }
  open_segment(next);
}

Wal::~Wal() {
  // Pending records die with the process — exactly the crash model. Closed
  // via ofstream destructor.
}

void Wal::open_segment(std::uint64_t seq) {
  if (out_.is_open()) out_.close();
  active_seq_ = seq;
  active_bytes_ = 0;
  out_.open(fs::path(dir_) / segment_name(seq),
            std::ios::binary | std::ios::trunc);
  net::Encoder header;
  header.put_u32(kWalMagic);
  header.put_u32(kStorageFormatVersion);
  header.put_u64(seq);
  out_.write(reinterpret_cast<const char*>(header.buffer().data()),
             static_cast<std::streamsize>(header.size()));
  out_.flush();
  active_bytes_ = header.size();
}

std::size_t Wal::append(std::uint8_t type, const net::Encoder& body) {
  const std::size_t before = pending_.size();
  // Frame: [u32 len][u32 crc][payload = type byte + body].
  net::Encoder frame(8 + 1 + body.size());
  const std::uint32_t len = static_cast<std::uint32_t>(1 + body.size());
  frame.put_u32(len);
  frame.put_u32(0);  // crc patched below, over the payload only
  frame.put_u8(type);
  frame.append_raw(body.buffer());
  const std::vector<std::byte>& buf = frame.buffer();
  const std::uint32_t crc = crc32(buf.data() + 8, len);
  // Encoder::patch_u16 only patches 16 bits; write the crc via memcpy on a
  // copy of the buffer instead.
  std::vector<std::byte> framed = buf;
  std::memcpy(framed.data() + 4, &crc, sizeof crc);
  pending_.insert(pending_.end(), framed.begin(), framed.end());
  return pending_.size() - before;
}

bool Wal::flush() {
  if (pending_.empty()) return false;
  out_.write(reinterpret_cast<const char*>(pending_.data()),
             static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  active_bytes_ += pending_.size();
  pending_.clear();
  if (active_bytes_ >= cfg_.segment_bytes) roll();
  return true;
}

void Wal::discard_pending() { pending_.clear(); }

void Wal::roll() {
  if (!pending_.empty()) {
    out_.write(reinterpret_cast<const char*>(pending_.data()),
               static_cast<std::streamsize>(pending_.size()));
    out_.flush();
    pending_.clear();
  }
  open_segment(active_seq_ + 1);
}

std::size_t Wal::truncate_closed_segments() {
  std::size_t removed = 0;
  for (const auto& [seq, path] : list_segments(dir_)) {
    if (seq >= active_seq_) continue;
    std::error_code ec;
    if (fs::remove(path, ec)) ++removed;
  }
  return removed;
}

std::vector<std::string> Wal::segment_files() const {
  std::vector<std::string> out;
  for (const auto& [seq, path] : list_segments(dir_)) {
    out.push_back(path.string());
  }
  return out;
}

std::vector<Wal::Record> Wal::replay_dir(const std::string& dir) {
  std::vector<Record> records;
  for (const auto& [seq, path] : list_segments(dir)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return records;  // unreadable segment: stop, like a torn tail
    // Header: magic + version + seq. A bad header poisons this segment and
    // everything after it.
    std::uint32_t magic = 0, version = 0;
    std::uint64_t hdr_seq = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof magic);
    in.read(reinterpret_cast<char*>(&version), sizeof version);
    in.read(reinterpret_cast<char*>(&hdr_seq), sizeof hdr_seq);
    if (!in || magic != kWalMagic || version != kStorageFormatVersion) {
      return records;
    }
    for (;;) {
      std::uint32_t len = 0, crc = 0;
      in.read(reinterpret_cast<char*>(&len), sizeof len);
      if (!in) break;  // clean EOF or torn length
      in.read(reinterpret_cast<char*>(&crc), sizeof crc);
      if (!in) return records;  // torn frame header
      if (len == 0 || len > (64u << 20)) return records;  // corrupt length
      std::vector<std::byte> payload(len);
      in.read(reinterpret_cast<char*>(payload.data()),
              static_cast<std::streamsize>(len));
      if (static_cast<std::uint32_t>(in.gcount()) != len) {
        return records;  // torn payload
      }
      if (crc32(payload.data(), len) != crc) return records;  // bit flip
      Record r;
      r.type = static_cast<std::uint8_t>(payload[0]);
      r.body.assign(payload.begin() + 1, payload.end());
      records.push_back(std::move(r));
    }
  }
  return records;
}

}  // namespace caesar::storage
