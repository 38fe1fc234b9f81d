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

inline constexpr std::uint32_t kFormatVersion = 1;

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
/// to size.  This is the only framing implementation;
/// CheckpointImage::serialize() runs its sections through it.
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
  /// IEEE-754 bit pattern; restore is bit-exact.
  void f64(double v);
  void bytes(const std::uint8_t* p, std::size_t n);
  /// Closes the frame: patches its length and appends its CRC.
  void end();

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t frame_ = 0;  ///< offset of the open frame's tag
};

/// Append-only little-endian encoder for one section payload.
class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern; restore is bit-exact.
  void f64(double v);
  void str(const std::string& s);

  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Matching decoder; throws CkptError{Truncated|Malformed, section} when the
/// payload runs out or decodes nonsense.
class PayloadReader {
 public:
  PayloadReader(const std::vector<std::uint8_t>& bytes, std::string section);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  /// Rejects trailing bytes (a length that disagrees with the content is
  /// corruption, not slack).
  void expect_end() const;
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
  std::string section_;
};

struct Section {
  std::string tag;  ///< exactly 4 characters
  std::vector<std::uint8_t> payload;
};

/// In-memory checkpoint image: the header fields plus the section list.
class CheckpointImage {
 public:
  std::uint64_t seed = 0;

  void add(const std::string& tag, std::vector<std::uint8_t> payload);
  /// Throws CkptError{MissingSection} when absent.
  const Section& require(const std::string& tag) const;

  const std::vector<Section>& sections() const noexcept { return sections_; }

  std::vector<std::uint8_t> serialize() const;
  static CheckpointImage parse(const std::vector<std::uint8_t>& bytes);

 private:
  std::vector<Section> sections_;
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
