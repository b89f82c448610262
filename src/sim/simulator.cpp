#include "sim/simulator.h"

#include <new>

#include <sanitizer/asan_interface.h>

namespace mead::sim {

namespace {

constexpr std::size_t kClasses = detail::FramePool::kMaxFrame / detail::FramePool::kGranule;
constexpr std::size_t size_class(std::size_t n) { return (n - 1) / detail::FramePool::kGranule; }
constexpr std::size_t block_size(std::size_t c) { return (c + 1) * detail::FramePool::kGranule; }

/// One thread's frame free lists; a free block's first word links to the
/// next. At thread exit the blocks are freed, and full counts send frames
/// freed later in that exit to ::operator delete.
struct FreeLists {
  void* head[kClasses] = {};
  std::size_t count[kClasses] = {};

  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (void* b = pop(c)) ::operator delete(b);
      count[c] = detail::FramePool::kCap;
    }
  }

  void* pop(std::size_t c) {
    void* b = head[c];
    if (b == nullptr) return nullptr;
    ASAN_UNPOISON_MEMORY_REGION(b, block_size(c));
    head[c] = *static_cast<void**>(b);
    --count[c];
    return b;
  }
};

thread_local FreeLists t_frames;

// Root wrapper for detached coroutines. Its frame self-destructs on
// completion, which unlinks it from the simulator's root list; frames still
// suspended when the Simulator dies are destroyed by ~Simulator.
struct DetachedTask {
  struct promise_type : detail::PromiseBase, detail::RootLink {
    DetachedTask get_return_object() {
      return DetachedTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }

    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        h.destroy();
      }
      void await_resume() const noexcept {}
    };
    [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
  };

  std::coroutine_handle<promise_type> handle;
};

DetachedTask run_detached(Task<void> inner) {
  co_await std::move(inner);
}

}  // namespace

void* detail::FramePool::allocate(std::size_t n) {
  if (n > kMaxFrame) return ::operator new(n);
  if (void* b = t_frames.pop(size_class(n))) return b;
  return ::operator new(block_size(size_class(n)));
}

void detail::FramePool::deallocate(void* p, std::size_t n) noexcept {
  const std::size_t c = size_class(n);
  if (n > kMaxFrame || t_frames.count[c] >= kCap) return ::operator delete(p);
  t_frames.head[c] = ::new (p) void*(t_frames.head[c]);
  ++t_frames.count[c];
  ASAN_POISON_MEMORY_REGION(p, block_size(c));
}

std::size_t detail::FramePool::cached(std::size_t n) {
  return n > kMaxFrame ? 0 : t_frames.count[size_class(n)];
}

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  logger_.set_clock([this] { return now_; });
}

Simulator::~Simulator() {
  // Drop pending events first (they may reference coroutine frames), then
  // destroy still-suspended detached coroutines. Nothing is resumed here.
  queue_.clear();
  fifo_.clear();
  slots_.clear();
  while (roots_.next != &roots_) {
    auto& root = static_cast<DetachedTask::promise_type&>(*roots_.next);
    std::coroutine_handle<DetachedTask::promise_type>::from_promise(root)
        .destroy();
  }
}

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  DetachedTask root = run_detached(std::move(task));
  detail::RootLink& link = root.handle.promise();  // append to roots_
  link.prev = roots_.prev;
  link.next = &roots_;
  roots_.prev = roots_.prev->next = &link;
  schedule(Duration{0}, [h = root.handle] { h.resume(); });
}

const Simulator::HeapEntry* Simulator::peek_next() const {
  const HeapEntry* f = fifo_.empty() ? nullptr : &fifo_.front();
  if (queue_.empty()) return f;
  const HeapEntry* q = &queue_.top();
  if (f == nullptr) return q;
  if (f->at != q->at) return f->at < q->at ? f : q;
  return f->seq < q->seq ? f : q;
}

void Simulator::pop_entry(const HeapEntry* e) {
  if (!fifo_.empty() && e == &fifo_.front()) {
    fifo_.pop_front();
  } else {
    queue_.pop();
  }
}

void Simulator::step(const HeapEntry& e) {
  now_ = e.at;
  ++events_processed_;
  // A generation mismatch means the event was cancelled: the entry still
  // advances the clock (identical to firing an empty closure) but runs
  // nothing — cancellation is externally unobservable except in saved work.
  if (slots_.gen(e.slot) != e.gen) return;
  // Invalidate before invoking so a cancel() issued from inside the closure
  // (e.g. a timeout waking a coroutine that then cancels its own timer) is
  // a harmless no-op rather than a double release.
  slots_.invalidate(e.slot);
  // Invoke in place: arena blocks are stable, so the closure stays put even
  // if it schedules new events. The slot is released only afterwards.
  EventFn& fn = slots_[e.slot];
  fn();
  fn.reset();
  slots_.release(e.slot);
}

void Simulator::run() {
  for (;;) {
    const HeapEntry* p = peek_next();
    if (p == nullptr) break;
    const HeapEntry e = *p;
    pop_entry(p);
    step(e);
  }
}

void Simulator::run_until(TimePoint deadline) {
  for (;;) {
    const HeapEntry* p = peek_next();
    if (p == nullptr || p->at > deadline) break;
    const HeapEntry e = *p;
    pop_entry(p);
    step(e);
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace mead::sim
