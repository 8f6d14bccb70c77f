#ifndef X100_SERVER_EVENT_LOOP_H_
#define X100_SERVER_EVENT_LOOP_H_

// Single-threaded epoll reactor behind the TCP front-end.
//
// One thread calls Run() and owns every registered fd's callback; other
// threads (query drivers, the controlling test) reach the loop only via
// Post(), which enqueues a task and wakes epoll_wait through an eventfd.
// Level-triggered: a callback that leaves bytes unconsumed is simply
// called again, so the per-connection code never needs drain-until-EAGAIN
// discipline for reads, and writability is subscribed only while an
// outbox actually holds bytes (EPOLLOUT re-arm on demand).

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace x100 {

class EventLoop {
 public:
  /// Invoked on the loop thread with the ready epoll event mask
  /// (EPOLLIN / EPOLLOUT / EPOLLHUP / EPOLLERR bits).
  using IoCallback = std::function<void(uint32_t events)>;

  EventLoop();
  /// The loop must already be stopped; closes the epoll and wakeup fds
  /// (registered fds are the registrants' to close).
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` (loop thread only, except before Run() starts).
  void AddFd(int fd, uint32_t events, IoCallback cb);
  /// Changes the interest mask of a registered fd (loop thread only).
  void ModFd(int fd, uint32_t events);
  /// Unregisters `fd`; pending events already fetched for it this
  /// iteration are suppressed (loop thread only).
  void DelFd(int fd);

  /// Runs `task` on the loop thread at the next iteration. Thread-safe;
  /// wakes a sleeping epoll_wait. Tasks posted after Stop() still run
  /// during the final drain before Run() returns; once Run() has returned,
  /// Post destroys the task unrun. (A task that captures an owner of the
  /// loop would otherwise keep the loop and itself alive forever.)
  void Post(std::function<void()> task);

  /// Dispatches events and posted tasks until Stop(). Call from exactly
  /// one thread; that thread becomes the loop thread.
  void Run();

  /// Makes Run() return after the current iteration. Thread-safe.
  void Stop();

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

 private:
  void Wake();
  void DrainTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: cross-thread wakeup for Post/Stop
  std::map<int, IoCallback> callbacks_;  // loop thread only

  std::mutex mu_;  // guards tasks_, stop_ and finished_
  std::vector<std::function<void()>> tasks_;
  bool stop_ = false;
  bool finished_ = false;  // Run() drained its last task and returned

  std::thread::id loop_thread_;
};

}  // namespace x100

#endif  // X100_SERVER_EVENT_LOOP_H_
