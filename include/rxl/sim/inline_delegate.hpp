// Non-allocating, fixed-size callable: the kernel's event callbacks
// (InlineEvent, inline_event.hpp) and the per-flit hooks (receivers,
// sources, payload functions).
//
// LinkChannel delivers one envelope per simulated flit, so its receiver
// callback sits on the same hot path as the event heap. std::function
// heap-allocates any capture beyond its SSO buffer and costs an indirect
// destructor walk per assignment; InlineDelegate stores the callable inline
// and requires it to be trivially copyable (rxl-lint R3 bans std::function
// from hot-path files). Callbacks capture a component pointer or a couple
// of references — anything heavier belongs in component-owned state.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rxl::sim {

template <typename Signature, std::size_t StorageBytes = 32>
class InlineDelegate;

template <typename Ret, typename... Args, std::size_t StorageBytes>
class InlineDelegate<Ret(Args...), StorageBytes> {
 public:
  static constexpr std::size_t kStorageBytes = StorageBytes;
  static constexpr std::size_t kStorageAlign = 8;

  InlineDelegate() = default;

  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineDelegate>,
                             int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): callable -> delegate.
  InlineDelegate(F&& fn) noexcept {
    using Callable = std::decay_t<F>;
    static_assert(sizeof(Callable) <= kStorageBytes,
                  "delegate callback exceeds inline storage: capture a "
                  "pointer to component-owned state instead of the state");
    static_assert(alignof(Callable) <= kStorageAlign,
                  "delegate callback over-aligned for inline storage");
    static_assert(std::is_trivially_copyable_v<Callable> &&
                      std::is_trivially_destructible_v<Callable>,
                  "delegate callbacks must be trivially copyable (no "
                  "std::function, no owning captures)");
    ::new (static_cast<void*>(storage_)) Callable(std::forward<F>(fn));
    invoke_ = [](void* storage, Args... args) -> Ret {
      return (*std::launder(reinterpret_cast<Callable*>(storage)))(
          std::forward<Args>(args)...);
    };
  }

  Ret operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

 private:
  using InvokeFn = Ret (*)(void*, Args...);

  InvokeFn invoke_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[StorageBytes];
};

}  // namespace rxl::sim
