// Chunked byte FIFO for connection inboxes.
//
// The previous inbox was a std::deque<std::uint8_t>: every delivery copied
// the payload byte-by-byte in, and every read copied bytes out and then
// erased them from the front — O(n²) over a streamed GIOP conversation.
// ByteQueue keeps the delivered payloads as whole chunks (push is a move)
// and consumes them through a front offset, so nothing is ever shifted, and
// a read that starts at a delivery boundary hands the delivered buffer
// itself to the reader.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "common/types.h"

namespace mead::net {

class ByteQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Appends a delivered payload. The chunk is moved, not copied; empty
  /// chunks are ignored.
  void push(Bytes chunk) {
    if (chunk.empty()) return;
    size_ += chunk.size();
    chunks_.push_back(std::move(chunk));
  }

  /// Removes and returns the next bytes of the stream, at most
  /// `max_bytes` of them. When the front chunk is untouched and fits, that
  /// chunk alone is moved out, uncopied: a short read at a delivery
  /// boundary, as a POSIX stream read may return. Otherwise — the front
  /// chunk is partly read, or larger than `max_bytes` — exactly
  /// min(max_bytes, size()) bytes are copied out, coalesced across chunk
  /// boundaries in stream order.
  [[nodiscard]] Bytes pop(std::size_t max_bytes) {
    if (size_ == 0 || max_bytes == 0) return {};
    Bytes& front = chunks_.front();
    if (offset_ == 0 && front.size() <= max_bytes) {
      size_ -= front.size();
      Bytes out = std::move(front);
      chunks_.pop_front();
      return out;
    }
    const std::size_t n = max_bytes < size_ ? max_bytes : size_;
    size_ -= n;
    Bytes out;
    out.reserve(n);
    std::size_t remaining = n;
    while (remaining > 0) {
      const Bytes& head = chunks_.front();
      const std::size_t avail = head.size() - offset_;
      const std::size_t take = avail < remaining ? avail : remaining;
      out.insert(out.end(), head.begin() + static_cast<std::ptrdiff_t>(offset_),
                 head.begin() + static_cast<std::ptrdiff_t>(offset_ + take));
      remaining -= take;
      offset_ += take;
      if (offset_ == head.size()) {
        chunks_.pop_front();
        offset_ = 0;
      }
    }
    return out;
  }

 private:
  std::deque<Bytes> chunks_;
  std::size_t offset_ = 0;  // consumed prefix of chunks_.front()
  std::size_t size_ = 0;
};

}  // namespace mead::net
