#include "trace/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "trace/export.hpp"
#include "util/log.hpp"

namespace cbe::trace {

namespace {

// An Event packed into five 64-bit words, so a slot can be stored and copied
// word by word through atomics.
constexpr std::size_t kWords = 5;
using Words = std::uint64_t[kWords];

void pack(const Event& e, Words& w) {
  w[0] = static_cast<std::uint64_t>(e.t_ns);
  w[1] = static_cast<std::uint64_t>(e.a);
  w[2] = static_cast<std::uint64_t>(e.b);
  w[3] = e.span;
  w[4] = static_cast<std::uint32_t>(e.pid) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.spe)) << 32 |
         static_cast<std::uint64_t>(e.kind) << 48;
}

Event unpack(const Words& w) {
  return Event{static_cast<std::int64_t>(w[0]),
               static_cast<std::int64_t>(w[1]),
               static_cast<std::int64_t>(w[2]),
               static_cast<std::int32_t>(w[4] & 0xffffffffu),
               static_cast<std::int16_t>((w[4] >> 32) & 0xffffu),
               static_cast<EventKind>((w[4] >> 48) & 0xffu),
               w[3]};
}

}  // namespace

// One single-writer ring.  `head` counts every record by the owning thread;
// event n lives in slot n % capacity.  Each slot is a sequence lock: the
// writer marks it busy (sequence 2n + 1), release-stores the payload words,
// publishes sequence 2n + 2, then release-stores head.  A reader checks the
// sequence, acquire-loads the words and re-checks the sequence: a word
// written by a later event would make the busy mark visible, so a slot
// overwritten during the copy is detected and dropped, never returned torn.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kWords];
  };
  Ring(std::size_t capacity, std::thread::id writer)
      : slots(capacity), writer(writer) {}
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};
  const std::thread::id writer;  ///< the thread that attached it
};

struct FlightRecorder::Impl {
  mutable std::mutex mu;  ///< guards `rings` registration only
  std::vector<std::unique_ptr<Ring>> rings;
};

// Thread-local attach cache: one ring per (thread, recorder) pair.  Keyed by
// the recorder's process-unique id, not its address: a thread that recorded
// into a destroyed recorder must re-attach to a new one built at the same
// address instead of writing into the freed ring.  Nested inside the class
// via this struct so it can name the private Ring type.
struct FlightRecorder::TlsAttach {
  std::uint64_t owner = 0;  ///< id of the recorder `ring` belongs to
  Ring* ring = nullptr;
  static TlsAttach& self() {
    thread_local TlsAttach tls;
    return tls;
  }
};

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};  // 0 = "no recorder"
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity < 16 ? 16 : capacity),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      impl_(new Impl) {}

FlightRecorder::~FlightRecorder() {
  if (installed_flight_recorder() == this) {
    install_flight_recorder(nullptr, "");
  }
  delete impl_;
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  TlsAttach& tls = TlsAttach::self();
  if (tls.owner == id_) return tls.ring;
  // The cache holds one recorder: a thread that switched away and back
  // finds the ring it attached before instead of attaching another.  A
  // thread id is reused only after its thread has ended, so a ring still
  // has one writer at a time.
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard lock(impl_->mu);
  auto it = std::find_if(impl_->rings.begin(), impl_->rings.end(),
                         [&](const auto& r) { return r->writer == self; });
  if (it == impl_->rings.end()) {
    impl_->rings.push_back(std::make_unique<Ring>(capacity_, self));
    it = impl_->rings.end() - 1;
  }
  tls = TlsAttach{id_, it->get()};
  return tls.ring;
}

void FlightRecorder::record(std::int64_t t_ns, EventKind kind, int spe,
                            int pid, std::int64_t a, std::int64_t b) {
  Ring* r = ring_for_this_thread();
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  Ring::Slot& slot = r->slots[static_cast<std::size_t>(h % capacity_)];
  Words words{};
  pack(Event{t_ns, a, b, pid, static_cast<std::int16_t>(spe), kind,
             current_span()},
       words);
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(2 * h + 2, std::memory_order_release);
  r->head.store(h + 1, std::memory_order_release);
}

std::vector<Event> FlightRecorder::tail() const {
  std::vector<Event> out;
  {
    std::lock_guard lock(impl_->mu);
    for (const auto& r : impl_->rings) {
      const std::uint64_t h = r->head.load(std::memory_order_acquire);
      const std::uint64_t n =
          h < capacity_ ? h : static_cast<std::uint64_t>(capacity_);
      out.reserve(out.size() + n);
      for (std::uint64_t i = h - n; i < h; ++i) {
        const Ring::Slot& slot =
            r->slots[static_cast<std::size_t>(i % capacity_)];
        const std::uint64_t published = 2 * i + 2;
        if (slot.seq.load(std::memory_order_acquire) != published) continue;
        Words w{};
        for (std::size_t k = 0; k < kWords; ++k) {
          w[k] = slot.words[k].load(std::memory_order_acquire);
        }
        if (slot.seq.load(std::memory_order_relaxed) != published) continue;
        out.push_back(unpack(w));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    return x.t_ns < y.t_ns;
  });
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(impl_->mu);
  std::uint64_t n = 0;
  for (const auto& r : impl_->rings) {
    n += r->head.load(std::memory_order_acquire);
  }
  return n;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::lock_guard lock(impl_->mu);
  std::uint64_t lost = 0;
  for (const auto& r : impl_->rings) {
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    if (h > capacity_) lost += h - capacity_;
  }
  return lost;
}

std::size_t FlightRecorder::threads_attached() const {
  std::lock_guard lock(impl_->mu);
  return impl_->rings.size();
}

// -- Process-wide crash-dump registration ------------------------------------

namespace {
std::mutex g_dump_mu;
FlightRecorder* g_recorder = nullptr;
std::string g_dump_path;
int g_dump_budget = 0;
std::atomic<std::uint64_t> g_dumps_written{0};
}  // namespace

void install_flight_recorder(FlightRecorder* rec, std::string dump_path,
                             int max_dumps) {
  std::lock_guard lock(g_dump_mu);
  g_recorder = rec;
  g_dump_path = std::move(dump_path);
  g_dump_budget = rec != nullptr ? max_dumps : 0;
}

FlightRecorder* installed_flight_recorder() noexcept {
  std::lock_guard lock(g_dump_mu);
  return g_recorder;
}

std::string flight_dump_text(const FlightRecorder& rec,
                             const std::vector<Event>& events,
                             const char* reason) {
  // Header first so the strict parser accepts the file; the annotation rides
  // in a comment line the parser skips.
  std::string out = "# cbe-trace v1\n";
  out += "# flight-recorder reason=" + std::string(reason) +
         " recorded=" + std::to_string(rec.recorded()) +
         " overwritten=" + std::to_string(rec.overwritten()) +
         " capacity=" + std::to_string(rec.capacity()) +
         " threads=" + std::to_string(rec.threads_attached()) + "\n";
  const std::string body = to_text(events);
  // to_text emits its own header line; keep only the event lines.
  const std::size_t nl = body.find('\n');
  out += nl == std::string::npos ? body : body.substr(nl + 1);
  return out;
}

bool dump_flight_recorder(const char* reason, bool force) noexcept {
  FlightRecorder* rec = nullptr;
  std::string path;
  {
    std::lock_guard lock(g_dump_mu);
    if (g_recorder == nullptr || g_dump_path.empty()) return false;
    if (!force) {
      if (g_dump_budget <= 0) return false;
      --g_dump_budget;
    }
    rec = g_recorder;
    path = g_dump_path;
  }
  try {
    const std::string text = flight_dump_text(*rec, rec->tail(), reason);
    if (!write_file(path, text)) return false;
    g_dumps_written.fetch_add(1, std::memory_order_relaxed);
    CBE_LOG_C(Info, "trace", "flight-recorder dump (%s) written to %s",
              reason, path.c_str());
    return true;
  } catch (...) {
    return false;  // a dump must never turn a crash into a different crash
  }
}

std::uint64_t flight_dumps_written() noexcept {
  return g_dumps_written.load(std::memory_order_relaxed);
}

}  // namespace cbe::trace
