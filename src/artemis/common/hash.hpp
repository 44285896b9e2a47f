#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace artemis {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320), bit-reflected,
/// initial value and final XOR 0xFFFFFFFF. Used to checksum on-disk plan
/// store records so torn or bit-rotted rows are detected instead of
/// silently parsed.
std::uint32_t crc32(const void* data, std::size_t n);
std::uint32_t crc32(const std::string& s);

/// Eight lowercase hex digits, zero-padded — the canonical textual form a
/// record stores its checksum in.
std::string crc32_hex(std::uint32_t crc);

/// Parse the 8-hex-digit form back. Returns false on anything that is not
/// exactly eight hex digits.
bool parse_crc32_hex(const std::string& s, std::uint32_t* out);

/// Incremental 128-bit content hash (two decorrelated 64-bit FNV-1a
/// lanes, avalanche-finalized). Not cryptographic: collision resistance is
/// "addressing a cache", not "adversarial input". Stable across platforms
/// and process runs — the digest is a pure function of the bytes fed in.
class ContentHasher {
 public:
  ContentHasher();

  void update(const void* data, std::size_t n);
  void update(const std::string& s);

  /// 32 lowercase hex digits. May be called repeatedly; update() may
  /// continue afterwards.
  std::string hex_digest() const;

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
};

}  // namespace artemis
