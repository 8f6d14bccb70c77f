#include "server/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace x100 {

namespace {
void Fatal(const char* what) {
  std::perror(what);
  std::abort();
}
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Fatal("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) Fatal("eventfd");
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    Fatal("epoll_ctl(wake)");
  }
}

EventLoop::~EventLoop() {
  close(wake_fd_);
  close(epoll_fd_);
}

void EventLoop::AddFd(int fd, uint32_t events, IoCallback cb) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    Fatal("epoll_ctl(add)");
  }
  callbacks_[fd] = std::move(cb);
}

void EventLoop::ModFd(int fd, uint32_t events) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    Fatal("epoll_ctl(mod)");
  }
}

void EventLoop::DelFd(int fd) {
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) < 0) {
    Fatal("epoll_ctl(del)");
  }
  callbacks_.erase(fd);
}

void EventLoop::Post(std::function<void()> task) {
  std::function<void()> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) {
      dropped = std::move(task);
    } else {
      tasks_.push_back(std::move(task));
    }
  }
  // A task posted too late dies on return, outside the lock: releasing its
  // captures may release the last owner of this loop.
  if (dropped) return;
  Wake();
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  Wake();
}

void EventLoop::Wake() {
  uint64_t one = 1;
  // The eventfd is a counter: concurrent wakes coalesce, EAGAIN (counter
  // saturated) still leaves it readable — both mean the loop will wake.
  ssize_t n = write(wake_fd_, &one, sizeof(one));
  (void)n;
}

void EventLoop::DrainTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::Run() {
  loop_thread_ = std::this_thread::get_id();
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fatal("epoll_wait");
    }
    for (int i = 0; i < n; i++) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      // A callback earlier in this batch may have closed this fd (DelFd):
      // the lookup suppresses the stale event. Should the fd number have
      // already been reused by an accept in the same batch, the spurious
      // dispatch is harmless — level-triggered handlers re-poll and see
      // EAGAIN.
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      // Invoke a COPY: the handler may DelFd its own fd (connection
      // teardown), and erasing the map entry mid-call would destroy the
      // executing function object and everything it captures.
      IoCallback cb = it->second;
      cb(events[i].events);
    }
    DrainTasks();
  }
  // Final drain so tasks posted around Stop() (connection teardown) run,
  // including tasks those tasks post. Later posts are dropped (see Post).
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tasks_.empty()) {
        finished_ = true;
        break;
      }
    }
    DrainTasks();
  }
}

}  // namespace x100
