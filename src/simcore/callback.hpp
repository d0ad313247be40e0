// Move-only small-buffer callable: the event queues' dispatch currency.
//
// Every scheduled event stores one of these. PR 6's fleet-scale profiling
// showed std::function dispatch cost dominating once the timing wheel made
// the queue itself O(1): libstdc++'s std::function inlines captures only up
// to 16 bytes, so the engine's most common capture shapes — `[this, id]`
// (16 B, inline) but also `[this, point]` with a 16-byte PricePoint (24 B,
// heap) — straddle its buffer boundary, and its copyability forces a
// virtual-dispatch move that checks for the heap case on every queue
// shuffle.
//
// sim::Callback fixes the shape to what the engine actually needs:
//
//   * move-only — events fire exactly once and the arena moves the callback
//     out at dispatch, so copy support buys nothing and costs type erasure
//     the ability to hold move-only captures (e.g. a std::promise);
//   * 24-byte inline buffer — covers `[this]`, `[this, integral id]`, and
//     `[this, PricePoint]`, the three shapes every hot scheduling site in
//     the provider/market/scheduler uses. With the vtable pointer the whole
//     object is 32 bytes, exactly the size of libstdc++'s std::function, so
//     the EventArena slot stays one cache line (see event_arena.hpp);
//   * larger captures (a copied std::function handler plus ids, a Placement
//     with a MarketId string) fall back to the heap, as they already did
//     under std::function — never silently, never slower than before.
//
// Invocation is one indirect call through a static per-type ops table; moves
// of inline captures dispatch through the same table (memcpy-speed for the
// trivially-relocatable common shapes), and heap captures move as a pointer
// swap without touching the callable. Each move is an indirect call, so
// the event path makes two: into the arena slot and out of it (see
// event_arena.hpp).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace spothost::sim {

class Callback {
 public:
  /// Inline capture budget. Chosen so sizeof(Callback) matches libstdc++'s
  /// std::function (32 bytes) while covering one pointer more of capture.
  static constexpr std::size_t kInlineBytes = 24;

  /// True if a callable of type F is stored inline (no allocation).
  template <class F>
  static constexpr bool stores_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  constexpr Callback() noexcept = default;
  constexpr Callback(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(runtime/explicit) — mirrors std::function
    using D = std::decay_t<F>;
    if constexpr (stores_inline<F>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      void* p = new D(std::forward<F>(f));
      std::memcpy(storage_, &p, sizeof(p));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { steal(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Invokes the stored callable. Precondition: non-empty. Const like
  /// std::function's call operator: constness of the wrapper does not
  /// propagate to the target.
  void operator()() const { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the stored callable (captured state released promptly).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's callable.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); }};

  template <class D>
  [[nodiscard]] static D* heap_target(void* s) noexcept {
    void* p;
    std::memcpy(&p, s, sizeof(p));
    return static_cast<D*>(p);
  }

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* s) { (*heap_target<D>(s))(); },
      [](void* dst, void* src) noexcept {
        std::memcpy(dst, src, sizeof(void*));  // pointer changes hands
      },
      [](void* s) noexcept { delete heap_target<D>(s); }};

  void steal(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(void*) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace spothost::sim
