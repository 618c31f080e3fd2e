#include "storage/durability.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "rsm/command.h"

namespace caesar::storage {

namespace fs = std::filesystem;

namespace {

/// Batched mode: a flush timer armed at the first buffered append fires
/// after this long.
constexpr Time kSyncIntervalUs = 5 * kMs;
/// Simulated CPU cost of one synchronous flush on the append path.
constexpr Time kFsyncCostUs = 50;

std::string snapshot_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "snap-%010llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_snapshot_name(const std::string& name, std::uint64_t* seq) {
  if (name.size() < 11 || name.rfind("snap-", 0) != 0) return false;
  if (name.substr(name.size() - 5) != ".snap") return false;
  const std::string digits = name.substr(5, name.size() - 10);
  if (digits.empty()) return false;
  std::uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

std::vector<std::pair<std::uint64_t, fs::path>> list_snapshots(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_snapshot_name(entry.path().filename().string(), &seq)) {
      snaps.emplace_back(seq, entry.path());
    }
  }
  std::sort(snaps.begin(), snaps.end());
  return snaps;
}

struct SnapshotContents {
  rsm::KvStore store;
  std::uint64_t frontier = 0;
  std::uint64_t prefix_hash = 0;
  std::uint64_t delivered_count = 0;
  bool trimmed = false;
};

/// Reads and validates one snapshot file; false on any framing/CRC/digest
/// mismatch (the caller falls back to an older snapshot or plain WAL replay).
bool read_snapshot_file(const fs::path& path, SnapshotContents* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  if (!in || magic != kSnapMagic || version != kStorageFormatVersion) {
    return false;
  }
  std::uint32_t len = 0, crc = 0;
  in.read(reinterpret_cast<char*>(&len), sizeof len);
  in.read(reinterpret_cast<char*>(&crc), sizeof crc);
  if (!in || len == 0 || len > (256u << 20)) return false;
  std::vector<std::byte> payload(len);
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(len));
  if (static_cast<std::uint32_t>(in.gcount()) != len) return false;
  if (crc32(payload.data(), len) != crc) return false;
  try {
    net::Decoder d(payload);
    SnapshotContents s;
    s.frontier = d.get_u64();
    s.prefix_hash = d.get_u64();
    s.delivered_count = d.get_u64();
    s.trimmed = d.get_bool();
    const std::uint64_t digest = d.get_u64();
    const std::uint64_t n = d.get_varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      const Key key = d.get_u64();
      const std::uint64_t value = d.get_u64();
      const std::uint64_t ver = d.get_varint();
      s.store.install(key, value, ver);
    }
    s.store.set_applied_commands(s.delivered_count);
    if (s.store.digest() != digest) return false;
    *out = std::move(s);
    return true;
  } catch (const net::DecodeError&) {
    return false;
  }
}

}  // namespace

Durability::Durability(std::string node_dir, StorageConfig cfg)
    : dir_(std::move(node_dir)), cfg_(cfg), wal_(dir_, cfg_) {
  hash_ = rsm::CommandLog().rolling_hash();  // FNV offset basis
  snapshot_seq_ = 1;
  for (const auto& [seq, path] : list_snapshots(dir_)) {
    snapshot_seq_ = std::max(snapshot_seq_, seq + 1);
  }
}

Durability::~Durability() = default;

void Durability::record_accept(std::uint64_t index, const rsm::Command& cmd) {
  accepts_[index] = cmd;
  net::Encoder body(64);
  body.put_varint(index);
  cmd.encode(body);
  appended(wal_.append(kAccept, body));
}

void Durability::record_deliver(std::uint64_t index,
                                std::uint64_t frontier_after,
                                const rsm::Command& cmd) {
  net::Encoder body(64);
  body.put_varint(index);
  body.put_varint(frontier_after);
  cmd.encode(body);
  const std::size_t bytes = wal_.append(kDeliver, body);
  mirror_.apply(cmd);
  hash_ = rsm::CommandLog::mix(hash_, index, cmd.id);
  frontier_ = std::max(frontier_, frontier_after);
  ++delivered_count_;
  accepts_.erase(index);
  ++delivers_since_snapshot_;
  appended(bytes);
  maybe_snapshot();
}

void Durability::record_frontier(std::uint64_t frontier) {
  if (frontier <= frontier_) return;
  frontier_ = frontier;
  net::Encoder body(16);
  body.put_varint(frontier);
  appended(wal_.append(kFrontier, body));
}

void Durability::record_bound(std::uint64_t bound) {
  bound_ = std::max(bound_, bound);
  net::Encoder body(16);
  body.put_varint(bound);
  if (stats_ != nullptr) ++stats_->wal_appends;
  wal_.append(kBound, body);
  // The fence must hit disk before the node sends anything that relies on
  // it, whatever the sync mode.
  flush_now(/*charge_cpu=*/true);
}

void Durability::flush() { flush_now(/*charge_cpu=*/false); }

void Durability::on_crash() {
  wal_.discard_pending();
  flush_timer_armed_ = false;
  ++snapshot_gen_;  // voids any deferred snapshot write in flight
}

void Durability::appended(std::size_t bytes) {
  (void)bytes;
  if (stats_ != nullptr) ++stats_->wal_appends;
  switch (cfg_.sync_mode) {
    case SyncMode::kAlways:
      flush_now(/*charge_cpu=*/true);
      break;
    case SyncMode::kBatched:
      if (wal_.pending_bytes() >= cfg_.sync_bytes) {
        flush_now(/*charge_cpu=*/true);
      } else {
        arm_flush_timer();
      }
      break;
  }
}

void Durability::flush_now(bool charge_cpu) {
  if (!wal_.flush()) return;
  if (stats_ != nullptr) ++stats_->fsyncs;
  if (charge_cpu && charge_) charge_(kFsyncCostUs);
}

void Durability::arm_flush_timer() {
  if (flush_timer_armed_ || !schedule_) return;
  flush_timer_armed_ = true;
  schedule_(kSyncIntervalUs, [this] {
    flush_timer_armed_ = false;
    flush_now(/*charge_cpu=*/false);
  });
}

void Durability::maybe_snapshot() {
  if (cfg_.snapshot_every == 0 ||
      delivers_since_snapshot_ < cfg_.snapshot_every) {
    return;
  }
  delivers_since_snapshot_ = 0;
  checkpoint_wal();
  // Write the snapshot off a copy taken now; the deferred timer models the
  // asynchronous background write. The generation fence voids the write if
  // the node crashes first.
  const std::uint64_t gen = snapshot_gen_;
  auto snap = std::make_shared<SnapshotContents>();
  snap->store = mirror_;
  snap->frontier = frontier_;
  snap->prefix_hash = hash_;
  snap->delivered_count = delivered_count_;
  snap->trimmed = trimmed_;
  auto write = [this, gen, snap] {
    if (gen != snapshot_gen_) return;
    write_snapshot_file(snap->store, snap->frontier, snap->prefix_hash,
                        snap->delivered_count, snap->trimmed);
    finish_snapshot(snap->frontier);
  };
  if (schedule_ && cfg_.snapshot_write_delay_us > 0) {
    schedule_(cfg_.snapshot_write_delay_us, std::move(write));
  } else {
    write();
  }
}

void Durability::checkpoint_wal() {
  wal_.roll();
  // Re-log the live (undelivered) state into the fresh segment, so the
  // snapshot plus this segment alone reconstruct the node and every older
  // segment becomes dead weight.
  if (bound_ > 0) {
    net::Encoder body(16);
    body.put_varint(bound_);
    wal_.append(kBound, body);
  }
  for (const auto& [index, cmd] : accepts_) {
    net::Encoder body(64);
    body.put_varint(index);
    cmd.encode(body);
    wal_.append(kAccept, body);
  }
  net::Encoder fbody(16);
  fbody.put_varint(frontier_);
  wal_.append(kFrontier, fbody);
  flush_now(/*charge_cpu=*/false);
  if (stats_ != nullptr) stats_->wal_appends += 2 + accepts_.size();
}

void Durability::write_snapshot_file(const rsm::KvStore& store,
                                     std::uint64_t frontier,
                                     std::uint64_t hash,
                                     std::uint64_t delivered_count,
                                     bool trimmed) {
  net::Encoder payload(64 + 24 * store.key_count());
  payload.put_u64(frontier);
  payload.put_u64(hash);
  payload.put_u64(delivered_count);
  payload.put_bool(trimmed);
  payload.put_u64(store.digest());
  payload.put_varint(store.key_count());
  for (const auto& [key, e] : store.contents()) {
    payload.put_u64(key);
    payload.put_u64(e.value);
    payload.put_varint(e.version);
  }

  const std::uint64_t seq = snapshot_seq_++;
  const fs::path path = fs::path(dir_) / snapshot_name(seq);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  net::Encoder header;
  header.put_u32(kSnapMagic);
  header.put_u32(kStorageFormatVersion);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header.put_u32(len);
  header.put_u32(crc32(payload.buffer().data(), payload.size()));
  out.write(reinterpret_cast<const char*>(header.buffer().data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(payload.buffer().data()),
            static_cast<std::streamsize>(payload.size()));
  out.flush();

  // Only the newest snapshot matters; drop superseded ones.
  for (const auto& [old_seq, old_path] : list_snapshots(dir_)) {
    if (old_seq >= seq) continue;
    std::error_code ec;
    fs::remove(old_path, ec);
  }
  ++snapshots_written_;
  if (stats_ != nullptr) ++stats_->snapshots;
}

void Durability::finish_snapshot(std::uint64_t frontier) {
  const std::size_t removed = wal_.truncate_closed_segments();
  segments_truncated_ += removed;
  if (stats_ != nullptr) stats_->truncated_segments += removed;
  if (on_snapshot_) on_snapshot_(frontier);
}

RecoveredState Durability::replay() {
  RecoveredState st;

  // Newest valid snapshot first; fall back through older ones (a crash can
  // catch a snapshot write mid-file, which read_snapshot_file rejects).
  auto snaps = list_snapshots(dir_);
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    SnapshotContents s;
    if (read_snapshot_file(it->second, &s)) {
      st.store = std::move(s.store);
      st.frontier = s.frontier;
      st.delivered_count = s.delivered_count;
      st.trimmed = s.trimmed;
      st.log.set_base(s.frontier, s.prefix_hash);
      break;
    }
  }

  // WAL suffix on top. Deliver records below the snapshot frontier are
  // already folded into the store (delivery order is index order for every
  // protocol using this).
  std::map<std::uint64_t, rsm::Command> accepts;
  for (const Wal::Record& rec : Wal::replay_dir(dir_)) {
    try {
      net::Decoder d(rec.body);
      switch (rec.type) {
        case kDeliver: {
          const std::uint64_t index = d.get_varint();
          const std::uint64_t frontier_after = d.get_varint();
          rsm::Command cmd = rsm::Command::decode(d);
          if (index < st.frontier) break;  // covered by the snapshot
          accepts.erase(index);
          st.store.apply(cmd);
          st.log.append(index, std::move(cmd));
          st.frontier = std::max(st.frontier, frontier_after);
          ++st.delivered_count;
          break;
        }
        case kAccept: {
          const std::uint64_t index = d.get_varint();
          accepts[index] = rsm::Command::decode(d);
          break;
        }
        case kFrontier:
          st.frontier = std::max(st.frontier, d.get_varint());
          break;
        case kBound:
          st.bound = std::max(st.bound, d.get_varint());
          break;
        default:
          break;  // unknown record type: ignore (forward compatibility)
      }
    } catch (const net::DecodeError&) {
      // A record that passed CRC but fails decoding is a format bug, not
      // disk corruption; drop it rather than crash the recovery.
    }
  }
  for (auto it = accepts.begin(); it != accepts.end();) {
    it = it->first < st.frontier ? accepts.erase(it) : std::next(it);
  }
  st.accepts.assign(accepts.begin(), accepts.end());

  // Reset the in-memory mirror to the recovered state.
  mirror_ = st.store;
  frontier_ = st.frontier;
  hash_ = st.log.rolling_hash();
  bound_ = st.bound;
  delivered_count_ = st.delivered_count;
  trimmed_ = st.trimmed;
  accepts_ = std::move(accepts);
  delivers_since_snapshot_ = 0;
  flush_timer_armed_ = false;
  ++snapshot_gen_;
  return st;
}

void Durability::install_snapshot(const rsm::KvStore& store,
                                  std::uint64_t frontier,
                                  std::uint64_t prefix_hash,
                                  std::uint64_t delivered_count) {
  mirror_ = store;
  frontier_ = frontier;
  hash_ = prefix_hash;
  delivered_count_ = delivered_count;
  trimmed_ = true;
  for (auto it = accepts_.begin(); it != accepts_.end();) {
    it = it->first < frontier ? accepts_.erase(it) : std::next(it);
  }
  delivers_since_snapshot_ = 0;
  // An installed snapshot is persisted synchronously: the whole point is
  // that this node's own disk can no longer reconstruct the prefix, so the
  // snapshot must be durable before anything builds on it.
  checkpoint_wal();
  write_snapshot_file(mirror_, frontier_, hash_, delivered_count_,
                      /*trimmed=*/true);
  const std::size_t removed = wal_.truncate_closed_segments();
  segments_truncated_ += removed;
  if (stats_ != nullptr) stats_->truncated_segments += removed;
}

}  // namespace caesar::storage
