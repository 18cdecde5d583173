#ifndef WDC_UTIL_INLINE_ACTION_HPP
#define WDC_UTIL_INLINE_ACTION_HPP

/// @file inline_action.hpp
/// InlineFunction — a fixed-capacity, non-allocating, move-only callable.
///
/// The event kernel's replacement for std::function on the schedule/fire hot
/// path: the capture is constructed directly inside the object (no heap
/// allocation, ever) and dispatch is one indirect call through a per-type
/// static ops table. Oversized or potentially-throwing captures are rejected
/// at compile time rather than silently spilling to the heap — if a capture
/// outgrows the buffer, the static_assert points at the offending call site
/// and the capacity is raised deliberately.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wdc {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "InlineFunction: callable has the wrong signature");
    static_assert(sizeof(Fn) <= Capacity,
                  "InlineFunction: capture too large for the inline buffer — "
                  "shrink the capture or raise the capacity deliberately");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "InlineFunction: over-aligned capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction: capture must be nothrow-movable (records "
                  "relocate inside the kernel's slot pool)");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(static_cast<void*>(buf_),
                        std::forward<Args>(args)...);
  }

  /// Destroy the held callable (if any); leaves the object empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(static_cast<void*>(buf_));
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void steal(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(static_cast<void*>(buf_),
                     static_cast<void*>(other.buf_));
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace wdc

#endif  // WDC_UTIL_INLINE_ACTION_HPP
