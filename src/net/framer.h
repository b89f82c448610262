// Reassembles length-prefixed frames from a byte stream. One Framer serves
// both wire formats; its Rule gives the header size (kHeaderSize), the
// frame size a header declares (frame_size: header included, 0 for a
// corrupt header) and the frame made of the bytes from `at` in a buffer
// (make).
//
// Frames take their bytes rather than copy them where they can: feed()
// adopts a chunk when nothing is buffered, and next() hands the whole
// buffer to a frame that ends it, whatever the frames ahead of it. Only a
// frame with more bytes behind it is copied out. The chunk may be a shared
// buffer (one stamped frame fanned out to several readers): the framer
// only reads it, through const access, so it is never copied for that.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "common/types.h"

namespace mead::net {

template <typename Rule>
class Framer {
 public:
  using Frame = typename Rule::Frame;

  void feed(Bytes chunk) {
    if (buffered() == 0) {
      // Nothing pending: the chunk becomes the buffer, uncopied.
      buf_ = std::move(chunk);
      head_ = 0;
      return;
    }
    // Consumed frames are dropped here, once per chunk, rather than by an
    // erase per frame (quadratic when one chunk carries many frames).
    buf_.erase_prefix(head_);
    head_ = 0;
    buf_.append(std::as_const(chunk));
  }

  /// Next complete frame; nullopt if more bytes are needed. A malformed
  /// stream sets corrupt() and yields nullopt forever.
  std::optional<Frame> next() {
    if (corrupt_ || buffered() < Rule::kHeaderSize) return std::nullopt;
    const Bytes& buf = buf_;
    const std::size_t size = Rule::frame_size(buf.data() + head_);
    corrupt_ = size == 0;
    if (corrupt_ || buffered() < size) return std::nullopt;
    const std::size_t at = head_;
    if (buffered() == size) {
      // The frame ends the buffer: it takes the buffer whole.
      head_ = 0;
      return Rule::make(std::move(buf_), at);  // leaves buf_ empty
    }
    head_ += size;
    return Rule::make(Bytes(ByteView(buf).subspan(at, size)), 0);
  }

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - head_; }

 private:
  Bytes buf_;
  std::size_t head_ = 0;  // bytes of buf_ already handed out as frames
  bool corrupt_ = false;
};

}  // namespace mead::net
