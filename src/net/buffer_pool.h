// Message-buffer recycling for the runtime send path.
//
// Every protocol message used to cost three allocations before it reached the
// network: the body Encoder's vector, the framed copy, and the shared_ptr
// payload. The pool closes the loop instead: Env::encoder() hands protocols a
// recycled buffer with the frame header pre-reserved, Node patches the type
// tag in place, and the payload's deleter returns both the storage and its
// heap shell here once the last recipient is done — steady-state messaging
// allocates nothing but the shared_ptr control block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace caesar::net {

class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  /// Buffers above this capacity are not retained (a rare huge message must
  /// not pin its storage forever).
  static constexpr std::size_t kMaxRetainedCapacity = 1 << 16;
  /// Free-list depth; beyond it buffers are simply freed.
  static constexpr std::size_t kMaxRetained = 256;

  /// An empty buffer, reusing pooled storage when available.
  std::vector<std::byte> acquire(std::size_t reserve_hint = 0) {
    std::vector<std::byte> buf;
    if (!buffers_.empty()) {
      buf = std::move(buffers_.back());
      buffers_.pop_back();
      buf.clear();
      ++reuses_;
    }
    if (reserve_hint > 0) buf.reserve(reserve_hint);
    return buf;
  }

  /// Wraps a filled buffer as an immutable shared payload whose release
  /// returns the storage (and the vector shell) to this pool.
  std::shared_ptr<const std::vector<std::byte>> wrap(
      std::vector<std::byte> filled) {
    std::unique_ptr<std::vector<std::byte>> shell;
    if (!shells_.empty()) {
      shell = std::move(shells_.back());
      shells_.pop_back();
    } else {
      shell = std::make_unique<std::vector<std::byte>>();
    }
    *shell = std::move(filled);
    auto self = shared_from_this();
    std::vector<std::byte>* raw = shell.release();
    return std::shared_ptr<const std::vector<std::byte>>(
        raw, [self = std::move(self)](const std::vector<std::byte>* p) {
          self->reclaim(std::unique_ptr<std::vector<std::byte>>(
              const_cast<std::vector<std::byte>*>(p)));
        });
  }

  /// Returns an unwrapped buffer (e.g. an encoder that was never sent).
  void recycle(std::vector<std::byte> buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxRetainedCapacity ||
        buffers_.size() >= kMaxRetained) {
      return;
    }
    buffers_.push_back(std::move(buf));
  }

  std::uint64_t reuses() const { return reuses_; }

 private:
  void reclaim(std::unique_ptr<std::vector<std::byte>> shell) {
    recycle(std::move(*shell));
    if (shells_.size() < kMaxRetained) {
      shell->clear();
      shells_.push_back(std::move(shell));
    }
  }

  std::vector<std::vector<std::byte>> buffers_;
  std::vector<std::unique_ptr<std::vector<std::byte>>> shells_;
  std::uint64_t reuses_ = 0;
};

}  // namespace caesar::net
