#pragma once
// net::EventLoop — the single-threaded epoll reactor under both wire
// servers (DESIGN.md §12 "Event-driven network core").
//
// One loop owns one epoll instance and runs on one thread. Everything
// registered with the loop — fd readiness callbacks, timers, posted
// tasks — executes on that thread, so per-connection protocol state
// needs no locks. Other threads interact with the loop through exactly
// two doors: post() (run-a-closure-on-the-loop, eventfd-woken) and
// stop().
//
// Timers live in a hashed timer wheel (256 slots × 4 ms ticks, rounds
// carried for horizons past one revolution): registering, firing and
// cancelling are O(1) amortized, which matters when every connection
// parks a deadline. epoll_wait sleeps until the nearest deadline (or a
// wakeup), so an idle loop burns no CPU.
//
// BigWorld's EventDispatcher (PAPERS.md / related repos) is the
// production precedent for this exact shape: poll-dispatch + timer
// queue + cross-thread wakeup fd.

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace stampede::net {

class EventLoop {
 public:
  /// Bitmask delivered to fd callbacks; values mirror EPOLLIN/EPOLLOUT
  /// so callers can pass them straight through.
  static constexpr std::uint32_t kReadable = 0x001;   // EPOLLIN
  static constexpr std::uint32_t kWritable = 0x004;   // EPOLLOUT
  using IoCallback = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  /// Creates the epoll instance + wakeup eventfd. Throws
  /// std::runtime_error when either syscall fails.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the dispatch loop on the calling thread until stop().
  void run();
  /// Spawns a thread that run()s; stop() joins it.
  void start();
  /// Requests shutdown (thread-safe, idempotent) and joins the start()
  /// thread if one exists. Pending tasks are drained before exit.
  void stop();

  /// True when the caller IS the loop thread (callbacks, posted tasks).
  [[nodiscard]] bool in_loop_thread() const noexcept {
    return std::this_thread::get_id() == loop_thread_.load();
  }

  /// Queues `task` for execution on the loop thread (thread-safe). Runs
  /// in-line immediately when called from the loop thread itself — the
  /// common fast path for connection writes.
  void post(std::function<void()> task);
  /// Like post() but always queues, even from the loop thread (used
  /// when the caller must finish its current callback first).
  void defer(std::function<void()> task);

  // -- fd interest (loop thread only) ---------------------------------------

  /// Registers `fd` with the given interest mask. The callback fires on
  /// the loop thread with the ready mask (error/hup folded into
  /// kReadable so every handler sees the condition on its next read).
  /// Returns false — recording nothing — when the kernel rejects the
  /// registration (EMFILE/ENOMEM/fd already watched); the caller must
  /// tear the connection down instead of waiting on events that will
  /// never arrive.
  [[nodiscard]] bool watch(int fd, std::uint32_t events, IoCallback callback);
  /// Changes the interest mask of a watched fd. False when the fd is
  /// not watched or the kernel rejects the change.
  bool rearm(int fd, std::uint32_t events);
  /// Deregisters; safe against in-flight events (they are skipped).
  void unwatch(int fd);

  // -- timers (loop thread only) --------------------------------------------

  /// One-shot timer after `delay`. Returns an id for cancel().
  TimerId schedule(std::chrono::milliseconds delay,
                   std::function<void()> callback);
  /// Periodic timer every `period` (first fire after one period).
  TimerId schedule_every(std::chrono::milliseconds period,
                         std::function<void()> callback);
  void cancel(TimerId id);

 private:
  static constexpr int kWheelSlots = 256;
  static constexpr std::int64_t kTickMs = 4;

  struct Watch {
    std::uint32_t events = 0;
    IoCallback callback;
  };
  struct Timer {
    TimerId id = 0;
    std::int64_t deadline_ms = 0;
    std::int64_t period_ms = 0;  ///< 0 = one-shot.
    std::function<void()> callback;
  };

  void wake();
  void drain_wakeup_fd() const;
  void run_tasks();
  void fire_due_timers(std::int64_t now_ms);
  void insert_timer(Timer timer);
  [[nodiscard]] int next_timeout_ms(std::int64_t now_ms) const;
  [[nodiscard]] static std::int64_t steady_now_ms();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::thread::id> loop_thread_{};
  std::thread thread_;  ///< Only when start() was used.
  std::mutex thread_mutex_;

  std::unordered_map<int, Watch> watches_;

  std::mutex task_mutex_;
  std::vector<std::function<void()>> tasks_;

  std::array<std::vector<Timer>, kWheelSlots> wheel_;
  /// Start (ms) of the tick the next sweep begins from, INCLUSIVE: the
  /// current tick's window may not have elapsed, so the cursor never
  /// moves past its start (a deadline later in the tick stays reachable).
  std::int64_t wheel_cursor_ms_ = 0;
  std::uint64_t timer_seq_ = 0;
  std::size_t timer_count_ = 0;
  std::int64_t soonest_deadline_ms_ = 0;  ///< Valid when timer_count_ > 0.
};

}  // namespace stampede::net
