#include "store/bitstream.hpp"

namespace hpcmon::store {

void BitWriter::spill_word(std::uint64_t word) {
  const std::size_t n = bytes_.size();
  bytes_.resize(n + 8);
  detail::store_be64(bytes_.data() + n, word);
}

std::vector<std::uint8_t> BitWriter::bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(byte_size());
  out.assign(bytes_.begin(), bytes_.end());
  std::uint64_t acc = acc_;
  for (int pending = filled_; pending > 0; pending -= 8) {
    out.push_back(static_cast<std::uint8_t>(acc >> 56));
    acc <<= 8;
  }
  return out;
}

std::uint64_t BitReader::read_split(int bits) {
  // refill() already ran: either the stream is exhausted mid-field, or the
  // field straddles the accumulator boundary (avail_ >= 57, bits > avail_).
  if (pos_ >= size_) return underrun();
  const int first = avail_;
  const std::uint64_t hi = extract(first);
  refill();
  const int rest = bits - first;  // 1..7
  if (rest > avail_) return underrun();
  return (hi << rest) | extract(rest);
}

std::uint64_t BitReader::underrun() {
  eof_ = true;
  pos_ = size_;
  acc_ = 0;
  avail_ = 0;
  return 0;
}

}  // namespace hpcmon::store
