#pragma once
// Versioned little-endian binary codec + FNV-1a content hashing.
//
// This is the foundation of the persistent setup snapshot and the
// checkpoint journals: the flow's library-OPC and pitch products are
// snapshotted once and reloaded warm by later CLI runs, test binaries, and
// benches.  Byte order is fixed little-endian regardless of host, so cache
// files and the golden byte sequences in the tests are platform-stable.
// ByteReader treats every malformed input -- truncation, overlong counts,
// non-increasing axes -- as SerializeError, never undefined behaviour:
// callers (SvaFlow's setup load) catch it and fall back to cold
// characterization.
//
// Codecs for cell-layer types that util cannot depend on (NldmTable) live
// with their type (cell/nldm.hpp) and compose these primitives.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/interp.hpp"

namespace sva {

/// Malformed or truncated serialized data (corrupt / stale cache file).
class SerializeError : public Error {
 public:
  explicit SerializeError(const std::string& what) : Error(what) {}
};

/// The file simply does not exist (the normal cold start).  Distinct from
/// other read failures so retry logic can treat absence as permanent while
/// retrying genuinely transient I/O errors.
class FileMissingError : public SerializeError {
 public:
  explicit FileMissingError(const std::string& what) : SerializeError(what) {}
};

/// 64-bit FNV-1a over a byte range.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// 64-bit FNV-1a over the buffer viewed as little-endian 64-bit words,
/// with the trailing partial word zero-padded and the total byte size
/// mixed in last.  ~8x faster than the byte-wise form; used to checksum
/// bulk cache payloads.  Not interoperable with fnv1a64.
std::uint64_t fnv1a64_words(const void* data, std::size_t size);

/// Incremental FNV-1a hasher for composite content keys (library + tech +
/// binning config).  Multi-byte values are hashed in their little-endian
/// byte order, so keys match across hosts.
class Fnv1aHasher {
 public:
  Fnv1aHasher& bytes(const void* data, std::size_t size);
  Fnv1aHasher& u64(std::uint64_t v);
  Fnv1aHasher& f64(double v);  ///< hashes the IEEE-754 bit pattern
  Fnv1aHasher& str(const std::string& s);  ///< length-prefixed
  Fnv1aHasher& vec_f64(const std::vector<double>& v);  ///< length-prefixed

  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);              ///< u64 length + raw bytes
  void vec_f64(const std::vector<double>& v);  ///< u64 count + doubles

  const std::string& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte buffer (not owned).
/// Every accessor throws SerializeError instead of reading past the end,
/// and length prefixes are validated against the remaining bytes before
/// any allocation (a corrupt count cannot trigger a huge allocation).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : p_(data.data()), end_(data.data() + data.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<double> vec_f64();

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return p_ == end_; }
  /// Throws SerializeError unless the whole buffer was consumed.
  void expect_end() const;

 private:
  const char* need(std::size_t n);  ///< advance past n bytes or throw
  const char* p_;
  const char* end_;
};

/// Interpolation-table codecs.  Deserialization re-validates the table
/// invariants (matching sizes, strictly increasing axes) and reports any
/// violation as SerializeError.
void serialize(ByteWriter& w, const LookupTable1D& t);
LookupTable1D deserialize_lut1d(ByteReader& r);
void serialize(ByteWriter& w, const LookupTable2D& t);
LookupTable2D deserialize_lut2d(ByteReader& r);

/// Atomically replace `path` with `bytes`: write to a unique temp file in
/// the same directory, then rename.  A concurrent reader sees either the
/// old file or the new one, never a torn write.  Creates parent
/// directories.  Throws Error on I/O failure.
void atomic_write_file(const std::string& path, const std::string& bytes);

/// Whole file as bytes; throws FileMissingError when the file does not
/// exist and SerializeError on any other open/read failure.
std::string read_file_bytes(const std::string& path);

/// Best-effort quarantine of a corrupt snapshot: rename `path` to
/// `path + ".corrupt.<pid>.<counter>"` so it is never re-parsed -- the
/// next run cold-starts cleanly instead of re-validating a file known to
/// be bad.  The PID+counter suffix makes names collision-proof: repeated
/// corruption of the same slot (or two processes quarantining at once)
/// preserves every piece of evidence instead of overwriting the last.
/// Returns false (and logs) when the rename itself fails; never throws.
bool quarantine_file(const std::string& path) noexcept;

}  // namespace sva
