// proto::Bytes — the payload type of read replies and write requests.
//
// An immutable byte range (offset, length) over a reference-counted buffer.
// Copying a Bytes bumps a reference count instead of copying 4 KB, so the
// places that must keep a payload while another owner also holds it — the
// RPC duplicate-request cache, Peer::Call's per-attempt request copy, the
// metadata cache's forward — share one buffer.
//
// The ownership rule: move vectors, share Bytes. A Bytes is built from a
// vector by moving it in, and nothing can write through a Bytes, so bytes
// that have been handed out never change. LocalFs relies on this: it
// stores a file as one buffer per block, hands out slices of those buffers
// as read replies, and replaces (never edits) a block on write, so a cached
// reply still holds exactly the bytes it was built from.
#ifndef SRC_PROTO_BYTES_H_
#define SRC_PROTO_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace proto {

class Bytes {
 public:
  using Buffer = std::shared_ptr<const std::vector<uint8_t>>;

  Bytes() = default;
  // Adopts the vector's storage; no bytes are copied. Implicit, so a
  // temporary vector can be passed wherever a payload is expected.
  Bytes(std::vector<uint8_t>&& bytes) : size_(bytes.size()) {
    if (size_ > 0) {
      buffer_ = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    }
  }
  // A view of [offset, offset + size) of a shared buffer.
  Bytes(Buffer buffer, size_t offset, size_t size)
      : buffer_(std::move(buffer)), offset_(offset), size_(size) {
    CHECK(size_ == 0 || (buffer_ != nullptr && offset_ + size_ <= buffer_->size()));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* data() const { return buffer_ ? buffer_->data() + offset_ : nullptr; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  // The sub-range [offset, offset + size) of this range, sharing the buffer.
  Bytes Slice(size_t offset, size_t size) const {
    CHECK(offset + size <= size_);
    return Bytes(buffer_, offset_ + offset, size);
  }

  // The whole buffer when this range spans all of it, else null: lets a
  // store adopt a payload without pinning a larger buffer it only slices.
  Buffer Whole() const {
    return buffer_ != nullptr && offset_ == 0 && size_ == buffer_->size() ? buffer_ : nullptr;
  }

  // An owning copy of the bytes.
  std::vector<uint8_t> ToVector() const { return std::vector<uint8_t>(begin(), end()); }

  friend bool operator==(const Bytes& a, const Bytes& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Buffer buffer_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

}  // namespace proto

#endif  // SRC_PROTO_BYTES_H_
