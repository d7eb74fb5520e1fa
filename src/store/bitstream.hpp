// Bit-granular writer/reader used by the chunk codecs — word-at-a-time.
//
// Both sides run on a 64-bit accumulator instead of per-bit byte pokes: the
// writer packs fields at the top of an accumulator and spills whole words
// into the byte buffer (endian-safe big-endian stores, so the bitstream
// layout — MSB-first — is byte-identical to the original bit-at-a-time
// implementation); the reader bulk-loads 8 bytes at a time and serves reads
// by shifting. A typical Gorilla field (1-16 bits) costs a couple of shifts
// and one branch instead of a per-bit loop, which is where the batch decode
// path (cursor.hpp) gets its throughput.
//
// Semantics are unchanged from the bit-at-a-time version: the writer is
// append-only over a byte vector (padded with zero bits), the reader is
// bounds-checked and reports underrun via eof() rather than throwing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hpcmon::store {

namespace detail {

/// Endian-safe big-endian word load/store (compilers lower these to a single
/// load/store + bswap on little-endian hosts).
inline std::uint64_t load_be64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(p[0]) << 56) |
         (static_cast<std::uint64_t>(p[1]) << 48) |
         (static_cast<std::uint64_t>(p[2]) << 40) |
         (static_cast<std::uint64_t>(p[3]) << 32) |
         (static_cast<std::uint64_t>(p[4]) << 24) |
         (static_cast<std::uint64_t>(p[5]) << 16) |
         (static_cast<std::uint64_t>(p[6]) << 8) |
         static_cast<std::uint64_t>(p[7]);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 56);
  p[1] = static_cast<std::uint8_t>(v >> 48);
  p[2] = static_cast<std::uint8_t>(v >> 40);
  p[3] = static_cast<std::uint8_t>(v >> 32);
  p[4] = static_cast<std::uint8_t>(v >> 24);
  p[5] = static_cast<std::uint8_t>(v >> 16);
  p[6] = static_cast<std::uint8_t>(v >> 8);
  p[7] = static_cast<std::uint8_t>(v);
}

}  // namespace detail

class BitWriter {
 public:
  /// Pre-size the byte buffer (e.g. worst-case bytes from a sample count) so
  /// the encode loop never reallocates mid-stream.
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  /// Append the low `bits` bits of `value`, most-significant first.
  void write(std::uint64_t value, int bits) {
    if (bits <= 0) return;
    if (bits < 64) value &= (~std::uint64_t{0}) >> (64 - bits);
    const int space = 64 - filled_;
    if (bits < space) {
      acc_ |= value << (space - bits);
      filled_ += bits;
      return;
    }
    // The field completes the word: spill it and keep the rest (possibly
    // none). `space` >= 1 (a full word is spilled at once), so `rest` is in
    // [0, 63] and every shift stays in range. The new state is set after
    // the spill, so callers keep it in registers across writes.
    const int rest = bits - space;
    spill_word(acc_ | (value >> rest));
    acc_ = rest == 0 ? 0 : value << (64 - rest);
    filled_ = rest;
  }
  void write_bit(bool bit) { write(bit ? 1 : 0, 1); }

  /// Number of bits written so far.
  std::size_t bit_count() const {
    return bytes_.size() * 8 + static_cast<std::size_t>(filled_);
  }
  /// Size of the finished byte buffer: bit_count() rounded up to a byte.
  std::size_t byte_size() const {
    return bytes_.size() + static_cast<std::size_t>(filled_ + 7) / 8;
  }
  /// The finished byte buffer (padded with zero bits), as an exact-size
  /// copy: the stream stays open for more writes.
  std::vector<std::uint8_t> bytes() const;
  /// Empty the stream, keeping the buffer's capacity.
  void clear() {
    bytes_.clear();
    acc_ = 0;
    filled_ = 0;
  }

 private:
  void spill_word(std::uint64_t word);  // append 8 big-endian bytes

  std::vector<std::uint8_t> bytes_;  // whole words spilled so far
  std::uint64_t acc_ = 0;  // pending bits at the top; low bits are zero
  int filled_ = 0;         // valid bits in acc_, 0..63
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  /// Read `bits` bits (MSB-first). Returns 0 and sets eof on underrun.
  std::uint64_t read(int bits) {
    if (bits <= 0 || eof_) return 0;
    if (bits > avail_) {
      refill();
      if (bits > avail_) return read_split(bits);
    }
    return extract(bits);
  }
  bool read_bit() { return read(1) != 0; }

  /// Look at the next `bits` bits (1..57) without consuming them. Bits past
  /// the end of the stream read as zero; peek never sets eof.
  std::uint64_t peek(int bits) {
    if (bits > avail_) refill();
    return acc_ >> (64 - bits);
  }

  /// Consume `bits` bits; same underrun semantics as read().
  void skip(int bits) { (void)read(bits); }

  bool eof() const { return eof_; }

 private:
  void refill() {
    if (avail_ == 0 && size_ - pos_ >= 8) {
      acc_ = detail::load_be64(data_ + pos_);
      pos_ += 8;
      avail_ = 64;
      return;
    }
    while (avail_ <= 56 && pos_ < size_) {
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << (56 - avail_);
      avail_ += 8;
    }
  }
  std::uint64_t extract(int bits) {  // requires 1 <= bits <= avail_
    const std::uint64_t v = acc_ >> (64 - bits);
    acc_ = bits == 64 ? 0 : acc_ << bits;
    avail_ -= bits;
    return v;
  }
  std::uint64_t read_split(int bits);  // word-boundary straddle or underrun
  std::uint64_t underrun();            // mark eof, zero the accumulator

  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t acc_ = 0;  // unread bits at the top; low bits are zero
  int avail_ = 0;          // valid bits in acc_
  std::size_t pos_ = 0;    // bytes loaded into acc_ so far
  bool eof_ = false;
};

}  // namespace hpcmon::store
