// Intrusively reference-counted records recycled through a free list.
//
// The offload path keeps one record per in-flight offload (the driver's
// Attempt) and one per work-shared loop (the loop executor's Loop).  Every
// engine continuation of that offload holds a Ref, so the record lives
// exactly as long as something can still fire for it — including chains a
// fail-stop suppressed, whose callbacks are destroyed unfired.  A Ref is one
// pointer, so a continuation capturing {this, ref, stage} fits the engine's
// inline callback storage, and a steady stream of offloads reuses the same
// few records instead of allocating.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace cbe::rt {

template <typename T>
class RecordPool {
 public:
  /// Base of every pooled record: the count and the free-list link.
  struct Node {
    int refs = 0;
    RecordPool* pool = nullptr;  ///< null once the pool is gone
    T* next_free = nullptr;
  };

  class Ref {
   public:
    Ref() noexcept = default;
    explicit Ref(T* p) noexcept : p_(p) {
      if (p_ != nullptr) ++p_->refs;
    }
    Ref(const Ref& o) noexcept : Ref(o.p_) {}
    Ref(Ref&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~Ref() {
      if (p_ == nullptr || --p_->refs != 0) return;
      if (p_->pool != nullptr) {
        p_->pool->recycle(p_);
      } else {
        delete p_;
      }
    }

    T* get() const noexcept { return p_; }
    T& operator*() const noexcept { return *p_; }
    T* operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

   private:
    T* p_ = nullptr;
  };

  RecordPool() = default;
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;
  /// Records still referenced (callbacks of an engine that outlives the
  /// pool) are handed over to their last Ref, which deletes them.
  ~RecordPool() {
    for (auto& r : owned_) {
      if (r->refs > 0) {
        r->pool = nullptr;
        r.release();
      }
    }
  }

  /// A free record (fields as its previous user left them; the caller
  /// resets what it uses), or a new one.
  Ref acquire() {
    T* p = free_;
    if (p != nullptr) {
      free_ = p->next_free;
    } else {
      owned_.push_back(std::make_unique<T>());
      p = owned_.back().get();
      p->pool = this;
    }
    return Ref(p);
  }

 private:
  void recycle(T* p) noexcept {
    p->next_free = free_;
    free_ = p;
  }

  std::vector<std::unique_ptr<T>> owned_;
  T* free_ = nullptr;
};

}  // namespace cbe::rt
