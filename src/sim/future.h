// One-shot Future<T>/Promise<T> pair for the simulator.
//
// A Promise may be fulfilled at most once; TrySet is idempotent and reports
// whether this call won. This is the primitive behind RPC timeouts: the
// reply path and a cancellable timeout timer race to TrySet the same
// promise. When the reply wins, the caller cancels the timer, which drops
// its closure (and its hold on the promise state) without running it; when
// the timer wins, a later TrySet on that promise loses and its value is
// discarded.
//
// Future and Promise share state via shared_ptr and are freely copyable.
// Awaiting a Future copies the value out, so several waiters can share one
// result. A single consumer awaits `future.Take()` instead, which moves the
// value out and leaves the state spent: still set (a racing TrySet loses),
// but a second Take, or any later await, CHECK-fails.
#ifndef SRC_SIM_FUTURE_H_
#define SRC_SIM_FUTURE_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/sim/simulator.h"

namespace sim {

template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& simulator) : state_(std::make_shared<State>(simulator)) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  // Fulfill the promise. Returns false if it was already fulfilled (the
  // value is then dropped). Waiters are resumed through the event queue.
  bool TrySet(T value) {
    if (state_->value.has_value()) {
      return false;
    }
    state_->value.emplace(std::move(value));
    for (std::coroutine_handle<> waiter : state_->waiters) {
      state_->simulator.Ready(waiter);
    }
    state_->waiters.clear();
    return true;
  }

  void Set(T value) { CHECK(TrySet(std::move(value))); }

 private:
  friend class Future<T>;
  struct State {
    explicit State(Simulator& s) : simulator(s) {}
    Simulator& simulator;
    std::optional<T> value;
    bool taken = false;  // value moved out by a Take; the state is spent
    std::vector<std::coroutine_handle<>> waiters;
  };

  std::shared_ptr<State> state_;
};

template <typename T>
class [[nodiscard]] Future {
 public:
  Future() = default;

  bool await_ready() const noexcept { return state_->value.has_value(); }
  void await_suspend(std::coroutine_handle<> h) { state_->waiters.push_back(h); }
  // Futures can be awaited by several coroutines; each gets a copy, unless
  // this Future came from Take().
  T await_resume() {
    CHECK(state_->value.has_value());
    CHECK(!state_->taken);
    if (take_) {
      state_->taken = true;
      return std::move(*state_->value);
    }
    return *state_->value;
  }

  // Single-consumer await: `co_await future.Take()` moves the value out.
  Future Take() && {
    take_ = true;
    return std::move(*this);
  }

  bool IsSet() const { return state_->value.has_value(); }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> s) : state_(std::move(s)) {}

  std::shared_ptr<typename Promise<T>::State> state_;
  bool take_ = false;
};

}  // namespace sim

#endif  // SRC_SIM_FUTURE_H_
