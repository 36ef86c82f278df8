// Software prefetch hints, for code that knows which memory it touches
// next (the engine's exchange lookahead, sim::INode::prefetch). A hint
// only asks the CPU to start loading cache lines: it reads and writes
// nothing, and no result depends on it.
#pragma once

#include <cstddef>

namespace raptee {

/// Hints every cache line of [begin, begin + bytes): one hint per 64 bytes
/// from `begin`, and one at the last byte for the line an unaligned range
/// ends in. Every address stays inside the range; an empty range forms
/// none, so `begin` may be null then.
inline void prefetch_bytes(const void* begin, std::size_t bytes) {
  if (bytes == 0) return;
  constexpr std::size_t kLine = 64;
  const auto* at = static_cast<const unsigned char*>(begin);
  for (std::size_t offset = 0; offset < bytes; offset += kLine) __builtin_prefetch(at + offset);
  __builtin_prefetch(at + bytes - 1);
}

}  // namespace raptee
