// Little-endian fixed-width fields: the one copy every byte encoding in the
// repo (QuantileSketch, AnalyzerCheckpoint) writes and reads through.
// Readers throw std::runtime_error on truncated input, so a damaged buffer
// always surfaces as the decoders' documented error type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rpm::codec {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Reads 4 bytes at `off` and advances it.
inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                             std::size_t& off) {
  if (off + 4 > in.size()) {
    throw std::runtime_error("codec: truncated input");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[off + i]) << (8 * i);
  }
  off += 4;
  return v;
}

/// Reads 8 bytes at `off` and advances it.
inline std::uint64_t get_u64(std::span<const std::uint8_t> in,
                             std::size_t& off) {
  if (off + 8 > in.size()) {
    throw std::runtime_error("codec: truncated input");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[off + i]) << (8 * i);
  }
  off += 8;
  return v;
}

}  // namespace rpm::codec
