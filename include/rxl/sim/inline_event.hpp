// Non-allocating, fixed-size event callback for the simulation kernel.
//
// Every simulated flit turns into a handful of scheduled events, so the
// callback representation is the hottest data structure in the Monte Carlo
// sweeps. std::function would heap-allocate any capture beyond its SSO
// buffer and needs a non-trivial move for every copy; InlineEvent instead
// stores the callable inline and requires it to be trivially copyable, so
// the EventQueue writes it into its slot table, and copies it out to run
// it, as a plain 48-byte block.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rxl::sim {

class InlineEvent {
 public:
  /// Inline storage budget. Sized (with headroom) for the largest event
  /// lambda in the codebase — reference-capturing test callbacks and the
  /// 16-byte Timer::Carrier record — so a whole InlineEvent is 48 bytes.
  /// Capture-by-value of anything heavier (a FlitEnvelope, say) fails the
  /// static_asserts below instead of silently allocating: park bulky
  /// payloads in a component-owned ParkedFifo or RingQueue and capture only
  /// the component pointer (see LinkChannel).
  static constexpr std::size_t kStorageBytes = 40;
  static constexpr std::size_t kStorageAlign = 8;

  InlineEvent() = default;

  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineEvent>,
                             int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): callable -> event adapter.
  InlineEvent(F&& fn) noexcept {
    using Callable = std::decay_t<F>;
    static_assert(sizeof(Callable) <= kStorageBytes,
                  "event callback exceeds InlineEvent storage: capture a "
                  "pointer to component-owned state instead of the state");
    static_assert(alignof(Callable) <= kStorageAlign,
                  "event callback over-aligned for InlineEvent storage");
    static_assert(std::is_trivially_copyable_v<Callable> &&
                      std::is_trivially_destructible_v<Callable>,
                  "event callbacks must be trivially copyable so the kernel "
                  "copies them as blocks (no std::function, no owning "
                  "captures)");
    ::new (static_cast<void*>(storage_)) Callable(std::forward<F>(fn));
    invoke_ = [](void* storage) {
      (*std::launder(reinterpret_cast<Callable*>(storage)))();
    };
  }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

 private:
  using InvokeFn = void (*)(void*);

  InvokeFn invoke_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kStorageBytes];
};

static_assert(std::is_trivially_copyable_v<InlineEvent>);
static_assert(sizeof(InlineEvent) == 48);

}  // namespace rxl::sim
