// Small-buffer-optimized move-only callable for the event kernel.
//
// Every TCP ACK re-arms the retransmission timer, so the event queue
// constructs and destroys one callback per segment. std::function heap
// allocates for captures beyond ~16 bytes and pays for copyability we never
// use; this type stores any callable up to kInlineBytes inline (timer
// lambdas capture a pointer or two) and only falls back to the heap for
// oversized captures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dyncdn::sim {

/// Move-only `void()` callable with inline storage.
class Callback {
 public:
  /// Inline capacity: large enough for a lambda capturing a handful of
  /// pointers/shared_ptrs or a std::function, small enough to keep heap
  /// entries cache-friendly.
  static constexpr std::size_t kInlineBytes = 48;

  Callback() = default;

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                     std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule() call site.
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      // Almost every kernel callback is a lambda over a few raw pointers:
      // trivially copyable and trivially destructible. Tag those in the
      // ops pointer's low bit so move and reset — the per-event hot path,
      // hit twice per schedule/cancel pair — become an inline memcpy and
      // a store instead of two indirect calls.
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        ops_ = tag(&InlineModel<D>::ops);
      } else {
        ops_ = &InlineModel<D>::ops;
      }
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapModel<D>::ops;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() { ops()->invoke(*this); }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!trivial()) ops()->destroy(*this);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(Callback&);
    /// Move-construct src's callable into dst's (empty) storage, then
    /// destroy src's. dst.ops_ is set by the caller.
    void (*relocate)(Callback& dst, Callback& src);
    void (*destroy)(Callback&);
  };

  static constexpr std::uintptr_t kTrivialBit = 1;

  static const Ops* tag(const Ops* p) {
    return reinterpret_cast<const Ops*>(reinterpret_cast<std::uintptr_t>(p) |
                                        kTrivialBit);
  }
  bool trivial() const {
    return (reinterpret_cast<std::uintptr_t>(ops_) & kTrivialBit) != 0;
  }
  const Ops* ops() const {
    return reinterpret_cast<const Ops*>(reinterpret_cast<std::uintptr_t>(ops_) &
                                        ~kTrivialBit);
  }

  template <class D>
  struct InlineModel {
    static D& target(Callback& c) {
      return *std::launder(reinterpret_cast<D*>(c.storage_));
    }
    static void invoke(Callback& c) { target(c)(); }
    static void relocate(Callback& dst, Callback& src) {
      ::new (static_cast<void*>(dst.storage_)) D(std::move(target(src)));
      target(src).~D();
    }
    static void destroy(Callback& c) { target(c).~D(); }
    static constexpr Ops ops{invoke, relocate, destroy};
  };

  template <class D>
  struct HeapModel {
    static D*& target(Callback& c) {
      return *std::launder(reinterpret_cast<D**>(c.storage_));
    }
    static void invoke(Callback& c) { (*target(c))(); }
    static void relocate(Callback& dst, Callback& src) {
      ::new (static_cast<void*>(dst.storage_)) D*(target(src));
    }
    static void destroy(Callback& c) { delete target(c); }
    static constexpr Ops ops{invoke, relocate, destroy};
  };

  void move_from(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.trivial()) {
        // Whole-buffer copy on purpose: the callable may be smaller than
        // kInlineBytes and the tail indeterminate, but copying a fixed 48
        // bytes beats a per-type size lookup on the hot path.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
        std::memcpy(storage_, other.storage_, kInlineBytes);
#pragma GCC diagnostic pop
      } else {
        other.ops()->relocate(*this, other);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

}  // namespace dyncdn::sim
