#include "serve/wire.hpp"

#include <algorithm>
#include <cstring>

#include "core/strings.hpp"

namespace hpcmon::serve {

void append_wire_frame(std::vector<std::uint8_t>& out, MsgType type,
                       std::uint32_t request_id,
                       const std::vector<std::uint8_t>& body) {
  const auto len = static_cast<std::uint32_t>(1 + 4 + body.size());
  // Grow geometrically: a caller appending frame after frame to one buffer
  // (the relay's send window) would otherwise reallocate on every frame.
  const std::size_t need = out.size() + 4 + len;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  const auto put_u32 = [&out](std::uint32_t v) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), b, b + 4);
  };
  put_u32(len);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(request_id);
  out.insert(out.end(), body.begin(), body.end());
}

bool WireAssembler::feed(const std::uint8_t* data, std::size_t n) {
  if (errored_) return false;
  buf_.insert(buf_.end(), data, data + n);
  // Validate the declared length as soon as the header is visible, BEFORE
  // next() is asked to materialize anything: a hostile 4 GiB length must be
  // rejected while only 4 bytes are buffered.
  if (buf_.size() >= 4) {
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data(), 4);
    if (len > max_frame_bytes_) {
      fail(core::strformat("declared frame length %u exceeds cap %u", len,
                           max_frame_bytes_));
      return false;
    }
    if (len < 5) {  // must at least hold type + request id
      fail(core::strformat("declared frame length %u below header size", len));
      return false;
    }
  }
  return true;
}

std::optional<WireFrame> WireAssembler::next() {
  if (errored_ || buf_.size() < 4) return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data(), 4);
  if (buf_.size() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  WireFrame f;
  f.type = static_cast<MsgType>(buf_[4]);
  std::memcpy(&f.request_id, buf_.data() + 5, 4);
  f.body.assign(buf_.begin() + kWireHeaderBytes, buf_.begin() + 4 + len);
  buf_.erase(buf_.begin(), buf_.begin() + 4 + len);
  // Re-validate the next header now at the front of the buffer (feed() only
  // sees the front-of-buffer header of its moment).
  if (buf_.size() >= 4) {
    std::uint32_t next_len = 0;
    std::memcpy(&next_len, buf_.data(), 4);
    if (next_len > max_frame_bytes_) {
      fail(core::strformat("declared frame length %u exceeds cap %u", next_len,
                           max_frame_bytes_));
    } else if (next_len < 5) {
      fail(core::strformat("declared frame length %u below header size",
                           next_len));
    }
  }
  return f;
}

void WireAssembler::fail(std::string why) {
  errored_ = true;
  error_ = std::move(why);
  buf_.clear();
  buf_.shrink_to_fit();
}

}  // namespace hpcmon::serve
