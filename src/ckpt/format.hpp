// Versioned, crash-consistent checkpoint container format.
//
// A checkpoint file is a fixed header followed by tagged sections:
//
//   header:   magic u64 | version u32 | config-hash u64 | seed u64 |
//             section-count u32 | header-crc u32
//   section:  tag (4 bytes) | payload-length u64 | payload | crc u32
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// patterns so restore is bit-exact.  Every section's CRC32 covers its tag,
// length, and payload, so a flipped bit anywhere is detected before any
// payload byte is interpreted, and the error names the damaged section.
//
// Durability protocol (write_file_atomic): the serialized image is written
// to `<path>.tmp`, fsync'd, renamed over `<path>`, and the directory is
// fsync'd.  A crash at any point leaves either the previous checkpoint or
// the new one — never a torn file.  The crash clock (sim/fault.hpp) ticks
// inside the window between temp-write and rename so kill-and-resume tests
// can prove exactly that.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cbe::ckpt {

/// Version 2 made a job snapshot (src/jobsvc) one frame that holds the job's
/// identity and its state under one CRC; version 1 split them over two.
inline constexpr std::uint32_t kFormatVersion = 2;

/// What went wrong while reading a checkpoint; each kind maps to a distinct
/// actionable diagnostic (and a distinct test in test_ckpt).
enum class ErrorKind {
  Io,              ///< file missing/unreadable/unwritable
  BadMagic,        ///< not a checkpoint file at all
  BadVersion,      ///< produced by an incompatible format version
  BadConfigHash,   ///< produced by an incompatible build configuration
  Truncated,       ///< file ends before the promised data
  CrcMismatch,     ///< a section's checksum does not match (bit rot)
  MissingSection,  ///< a required section is absent
  Malformed,       ///< a section decodes to inconsistent values
};

const char* error_kind_name(ErrorKind k) noexcept;

class CkptError : public std::runtime_error {
 public:
  CkptError(ErrorKind kind, const std::string& message,
            std::string section = "")
      : std::runtime_error(message),
        kind_(kind),
        section_(std::move(section)) {}
  ErrorKind kind() const noexcept { return kind_; }
  /// Four-character tag of the offending section, empty for file-level
  /// failures.
  const std::string& section() const noexcept { return section_; }

 private:
  ErrorKind kind_;
  std::string section_;
};

/// Hash over everything that changes the on-disk meaning of a checkpoint
/// payload for this build (format version, floating-point width, byte
/// order).  A mismatch means the file was written by an incompatible build
/// and must be rejected rather than misread.
std::uint64_t build_config_hash() noexcept;

/// Streaming encoder for a whole image: the header and its CRC, then one
/// frame per begin()/end() pair, written straight into the caller's buffer.
/// The buffer is cleared but keeps its capacity, so a caller that reuses one
/// buffer (a job record's snapshot) makes no heap request once it has grown
/// to size.  With ImageReader it is the whole codec: every image is written
/// by this class and read back by that one.
class ImageWriter {
 public:
  /// Writes the header; the caller then writes exactly `sections` frames.
  ImageWriter(std::vector<std::uint8_t>& out, std::uint64_t seed,
              std::uint32_t sections);

  /// Opens a frame: tag (exactly 4 characters) and a length placeholder.
  void begin(std::string_view tag);
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern; restore is bit-exact.
  void f64(double v);
  /// Closes the frame: patches its length and appends its CRC.
  void end();

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t frame_ = 0;  ///< offset of the open frame's tag
};

/// Decoder for one frame's payload, as ImageReader::next() yields it: a view
/// into the caller's bytes, read little-endian in the order ImageWriter
/// wrote it.  Throws CkptError{Truncated|Malformed, tag} when the payload
/// runs out or decodes nonsense.
class PayloadReader {
 public:
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  /// Rejects trailing bytes (a length that disagrees with the content is
  /// corruption, not slack).
  void expect_end() const;
  [[noreturn]] void fail(const std::string& why) const;

 private:
  friend class ImageReader;
  /// `tag` is exactly 4 characters.
  PayloadReader(const std::uint8_t* p, std::size_t len, std::string_view tag);
  void need(std::size_t n) const;
  std::string section() const { return std::string(tag_, sizeof tag_); }
  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
  char tag_[4];
};

/// Validating decoder for a whole image, reading the caller's bytes in
/// place.  The constructor checks magic, version, build-config hash and
/// header CRC, then every frame's bounds and CRC, then that no bytes trail
/// the last frame, so any corruption is caught before a payload byte is
/// interpreted.  next() then yields the frames in the order they were
/// written.  It copies nothing, so the bytes must outlive the reader and
/// every PayloadReader it returns.
class ImageReader {
 public:
  explicit ImageReader(const std::vector<std::uint8_t>& bytes);
  ImageReader(std::vector<std::uint8_t>&&) = delete;

  /// The header's seed field.
  std::uint64_t seed() const noexcept { return seed_; }

  /// The next frame, which must be tagged `tag`; throws
  /// CkptError{MissingSection, tag} when it is not or no frame is left.
  PayloadReader next(std::string_view tag);

 private:
  const std::uint8_t* p_;
  std::size_t pos_;      ///< offset of the next frame
  std::uint32_t left_;   ///< frames not yet yielded
  std::uint64_t seed_;
};

/// Reads a whole file; throws CkptError{Io} on failure.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Crash-consistent durable write: temp file + fsync + rename + directory
/// fsync.  Throws CkptError{Io} on failure.  Ticks the crash clock once
/// after the temp file is durable and once after the rename, so a
/// die-at-event fault can land inside the atomicity window.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// How transient I/O failures during a durable checkpoint write are retried
/// before the error is surfaced to the caller.  Backoff for attempt k (from
/// 1) sleeps min(max_backoff_s, base_backoff_s * multiplier^(k-1)).
struct IoRetryPolicy {
  int max_attempts = 5;
  double base_backoff_s = 0.01;
  double multiplier = 2.0;
  double max_backoff_s = 0.25;
};

/// write_file_atomic with retry-on-Io: a transient failure (full disk,
/// EINTR'd fsync, NFS hiccup) no longer aborts a multi-hour run outright.
/// Returns the number of attempts used (1 = no retry was needed); rethrows
/// the final CkptError{Io} once the policy is exhausted.  Non-Io errors are
/// never retried.
int write_file_atomic_retry(const std::string& path,
                            const std::vector<std::uint8_t>& bytes,
                            const IoRetryPolicy& policy = {});

namespace test_hooks {
/// Makes the next `n` write_file_atomic calls fail with CkptError{Io}
/// before touching the filesystem; 0 restores normal behaviour.
void fail_next_atomic_writes(int n) noexcept;
/// Replaces the retry backoff sleep (nullptr restores the real sleep).
/// Tests use this to capture the backoff schedule without waiting it out.
void set_retry_sleeper(void (*sleeper)(double seconds)) noexcept;
}  // namespace test_hooks

}  // namespace cbe::ckpt
