#include "ckpt/format.hpp"

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "sim/fault.hpp"
#include "util/crc32.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cbe::ckpt {

namespace {

// "CBECKPT1" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x3154504b43454243ull;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kTagSize = 4;
// An image buffer starts with room for a small image (a job snapshot is 141
// bytes), so a job's first snapshot allocates once instead of regrowing.
constexpr std::size_t kInitialCapacity = 256;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string tag_at(const std::uint8_t* p) {
  return std::string(reinterpret_cast<const char*>(p), kTagSize);
}

}  // namespace

const char* error_kind_name(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::Io: return "io";
    case ErrorKind::BadMagic: return "bad-magic";
    case ErrorKind::BadVersion: return "bad-version";
    case ErrorKind::BadConfigHash: return "bad-config-hash";
    case ErrorKind::Truncated: return "truncated";
    case ErrorKind::CrcMismatch: return "crc-mismatch";
    case ErrorKind::MissingSection: return "missing-section";
    case ErrorKind::Malformed: return "malformed";
  }
  return "unknown";
}

// FNV-1a over the facts that decide whether this build can interpret a
// checkpoint payload byte-for-byte.
constexpr std::uint64_t config_hash() {
  const std::uint64_t facts[] = {
      kFormatVersion,
      sizeof(double),
      std::endian::native == std::endian::little ? 1u : 0u,
  };
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t f : facts) {
    for (int i = 0; i < 8; ++i) {
      h ^= (f >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::uint64_t build_config_hash() noexcept { return config_hash(); }

ImageWriter::ImageWriter(std::vector<std::uint8_t>& out, std::uint64_t seed,
                         std::uint32_t sections)
    : out_(out) {
  out_.clear();
  out_.reserve(kInitialCapacity);
  put_u64(out_, kMagic);
  put_u32(out_, kFormatVersion);
  put_u64(out_, config_hash());
  put_u64(out_, seed);
  put_u32(out_, sections);
  put_u32(out_, util::crc32(out_.data(), out_.size()));
}

void ImageWriter::begin(std::string_view tag) {
  if (tag.size() != kTagSize) {
    throw CkptError(ErrorKind::Malformed,
                    "section tag must be 4 characters: '" + std::string(tag) +
                        "'");
  }
  frame_ = out_.size();
  out_.insert(out_.end(), tag.begin(), tag.end());
  put_u64(out_, 0);
}

void ImageWriter::u32(std::uint32_t v) { put_u32(out_, v); }
void ImageWriter::u64(std::uint64_t v) { put_u64(out_, v); }

void ImageWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ImageWriter::end() {
  const std::uint64_t len = out_.size() - frame_ - kTagSize - 8;
  for (int i = 0; i < 8; ++i) {
    out_[frame_ + kTagSize + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
  put_u32(out_, util::crc32(out_.data() + frame_, out_.size() - frame_));
}

PayloadReader::PayloadReader(const std::uint8_t* p, std::size_t len,
                             std::string_view tag)
    : p_(p), len_(len) {
  std::memcpy(tag_, tag.data(), sizeof tag_);
}

void PayloadReader::need(std::size_t n) const {
  if (n > len_ - pos_) {
    throw CkptError(ErrorKind::Truncated,
                    "checkpoint section '" + section() +
                        "' ends mid-field (payload shorter than its "
                        "contents claim)",
                    section());
  }
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return p_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(p_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(p_ + pos_);
  pos_ += 8;
  return v;
}

double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

void PayloadReader::expect_end() const {
  if (pos_ != len_) {
    throw CkptError(ErrorKind::Malformed,
                    "checkpoint section '" + section() + "' has " +
                        std::to_string(len_ - pos_) + " trailing bytes",
                    section());
  }
}

void PayloadReader::fail(const std::string& why) const {
  throw CkptError(ErrorKind::Malformed,
                  "checkpoint section '" + section() + "': " + why,
                  section());
}

ImageReader::ImageReader(const std::vector<std::uint8_t>& bytes)
    : p_(bytes.data()), pos_(kHeaderSize) {
  const std::size_t size = bytes.size();
  if (size < kHeaderSize) {
    throw CkptError(ErrorKind::Truncated,
                    "checkpoint file is shorter than the header (" +
                        std::to_string(size) + " bytes)");
  }
  if (get_u64(p_) != kMagic) {
    throw CkptError(ErrorKind::BadMagic,
                    "not a checkpoint file (magic mismatch)");
  }
  const std::uint32_t version = get_u32(p_ + 8);
  if (version != kFormatVersion) {
    throw CkptError(ErrorKind::BadVersion,
                    "checkpoint format version " + std::to_string(version) +
                        " is not supported (this build reads version " +
                        std::to_string(kFormatVersion) + ")");
  }
  if (get_u64(p_ + 12) != build_config_hash()) {
    throw CkptError(ErrorKind::BadConfigHash,
                    "checkpoint was written by an incompatible build "
                    "configuration; re-run from a cold start");
  }
  if (util::crc32(p_, kHeaderSize - 4) != get_u32(p_ + kHeaderSize - 4)) {
    throw CkptError(ErrorKind::CrcMismatch,
                    "checkpoint header CRC mismatch (corrupted file)",
                    "HEAD");
  }
  seed_ = get_u64(p_ + 20);
  left_ = get_u32(p_ + 28);

  std::size_t pos = kHeaderSize;
  for (std::uint32_t i = 0; i < left_; ++i) {
    if (pos + kTagSize + 8 > size) {
      throw CkptError(ErrorKind::Truncated,
                      "checkpoint file ends inside section " +
                          std::to_string(i) + "'s frame");
    }
    const std::uint64_t len = get_u64(p_ + pos + kTagSize);
    if (len > size || pos + kTagSize + 8 + len + 4 > size) {
      const std::string tag = tag_at(p_ + pos);
      throw CkptError(ErrorKind::Truncated,
                      "checkpoint file ends inside section '" + tag + "'",
                      tag);
    }
    if (util::crc32(p_ + pos, kTagSize + 8 + len) !=
        get_u32(p_ + pos + kTagSize + 8 + len)) {
      const std::string tag = tag_at(p_ + pos);
      throw CkptError(ErrorKind::CrcMismatch,
                      "checkpoint section '" + tag +
                          "' CRC mismatch (corrupted file)",
                      tag);
    }
    pos += kTagSize + 8 + len + 4;
  }
  if (pos != size) {
    throw CkptError(ErrorKind::Malformed,
                    "checkpoint file has " + std::to_string(size - pos) +
                        " trailing bytes after the last section");
  }
}

PayloadReader ImageReader::next(std::string_view tag) {
  if (left_ == 0 || tag.size() != kTagSize ||
      std::memcmp(p_ + pos_, tag.data(), kTagSize) != 0) {
    throw CkptError(ErrorKind::MissingSection,
                    "checkpoint is missing required section '" +
                        std::string(tag) + "'",
                    std::string(tag));
  }
  const auto len = static_cast<std::size_t>(get_u64(p_ + pos_ + kTagSize));
  const PayloadReader r(p_ + pos_ + kTagSize + 8, len, tag);
  pos_ += kTagSize + 8 + len + 4;
  --left_;
  return r;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CkptError(ErrorKind::Io, "cannot open checkpoint '" + path +
                                       "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    throw CkptError(ErrorKind::Io, "read error on checkpoint '" + path + "'");
  }
  return bytes;
}

namespace {
std::atomic<int> g_fail_writes{0};
std::atomic<void (*)(double)> g_retry_sleeper{nullptr};
}  // namespace

namespace test_hooks {

void fail_next_atomic_writes(int n) noexcept {
  g_fail_writes.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

void set_retry_sleeper(void (*sleeper)(double)) noexcept {
  g_retry_sleeper.store(sleeper, std::memory_order_relaxed);
}

}  // namespace test_hooks

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Injected transient failure (tests): fail before touching the filesystem
  // so the previous checkpoint stays untouched, like a real full-disk error.
  int budget = g_fail_writes.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !g_fail_writes.compare_exchange_weak(budget, budget - 1,
                                              std::memory_order_relaxed)) {
  }
  if (budget > 0) {
    throw CkptError(ErrorKind::Io,
                    "injected transient write failure for '" + path + "'");
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw CkptError(ErrorKind::Io, "cannot create '" + tmp +
                                       "': " + std::strerror(errno));
  }
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  bool synced = std::fflush(f) == 0 && wrote;
#if defined(__unix__) || defined(__APPLE__)
  if (synced) synced = ::fsync(::fileno(f)) == 0;
#endif
  if (std::fclose(f) != 0) synced = false;
  if (!synced) {
    std::remove(tmp.c_str());
    throw CkptError(ErrorKind::Io, "failed to write '" + tmp + "'");
  }

  // The temp file is durable but not yet visible: a crash here must leave
  // the previous checkpoint untouched (kill-and-resume tests aim a
  // die-at-event fault at exactly this tick).
  sim::crash_clock_tick();

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CkptError(ErrorKind::Io, "failed to rename '" + tmp + "' to '" +
                                       path + "': " + std::strerror(errno));
  }
#if defined(__unix__) || defined(__APPLE__)
  // Make the rename itself durable (best-effort: some filesystems refuse
  // directory fsync).
  std::string dir = ".";
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  sim::crash_clock_tick();
}

int write_file_atomic_retry(const std::string& path,
                            const std::vector<std::uint8_t>& bytes,
                            const IoRetryPolicy& policy) {
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  double backoff = policy.base_backoff_s;
  for (int attempt = 1;; ++attempt) {
    try {
      write_file_atomic(path, bytes);
      return attempt;
    } catch (const CkptError& e) {
      if (e.kind() != ErrorKind::Io || attempt >= attempts) throw;
    }
    const double delay =
        backoff < policy.max_backoff_s ? backoff : policy.max_backoff_s;
    if (void (*sleeper)(double) =
            g_retry_sleeper.load(std::memory_order_relaxed)) {
      sleeper(delay);
    } else if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    backoff *= policy.multiplier;
  }
}

}  // namespace cbe::ckpt
