// Small-buffer callable for the simulator's event slab.
//
// std::function is the wrong shape for the event queue: its 16-byte SBO
// spills most capturing lambdas to the heap (the network's delivery closures
// carry a shared_ptr + two node ids + a captured `this`, ~40 bytes), so every
// schedule/execute cycle pays an allocate/free pair, and moving a slab
// element drags the allocator into heap sift operations. InlineFn widens the
// inline buffer to 48 bytes — sized for the hottest closures in the codebase
// (network delivery, CPU-completion, the node timer wrapper, and the node's
// CPU-queue tasks for handled messages, submissions and batch flushes, all ≤48
// bytes) — and keeps the vtable down to the three operations the slab
// actually needs: invoke, relocate, destroy. No copy, no target(), no
// allocator hooks.
//
// Callables larger than the buffer (or not nothrow-movable) fall back to a
// single heap cell; relocation then degrades to a pointer copy, so the slab
// stays cheap to grow either way.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace caesar::sim {

class InlineFn {
 public:
  /// Inline storage size. 48 bytes fits `[this, shared_ptr, ids]` delivery
  /// closures and the node timer wrapper `[this, std::function, epoch]`.
  static constexpr std::size_t kInlineSize = 48;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& o) noexcept { take(o); }

  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// True when the target lives in the inline buffer (tests).
  template <typename D>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<D>>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the target from `from` into `to`, then destroy `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) noexcept {
        D* f = static_cast<D*>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
  };

  // Heap fallback: the buffer holds a single D*, so relocation is a pointer
  // copy regardless of the target's size or move semantics.
  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* from, void* to) noexcept {
        *static_cast<D**>(to) = *static_cast<D**>(from);
      },
      [](void* p) noexcept { delete *static_cast<D**>(p); },
  };

  void take(InlineFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    ops_ = o.ops_;
    ops_->relocate(o.buf_, buf_);
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace caesar::sim
