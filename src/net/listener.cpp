#include "net/listener.hpp"

#include <chrono>
#include <future>
#include <utility>

namespace stampede::net {

Listener::Listener(const std::string& host, int port, int backlog)
    : fd_(common::listen_tcp(host, port, backlog, &port_)) {}

void Listener::start(EventLoop& loop, AcceptHandler on_accept) {
  loop_ = &loop;
  on_accept_ = std::move(on_accept);
  (void)common::set_nonblocking(fd_.get());
  loop.post([this] { watch(); });
}

void Listener::watch() {
  // A rejected registration means resources are still short: back off.
  if (!loop_->watch(fd_.get(), EventLoop::kReadable,
                    [this](std::uint32_t) { accept_ready(); })) {
    pause();
  }
}

void Listener::accept_ready() {
  for (;;) {
    int accept_err = 0;
    auto client = common::accept_nonblocking(fd_.get(), &accept_err);
    if (!client.valid()) {
      if (accept_err != 0) pause();  // Not drained, just failing.
      return;
    }
    on_accept_(std::move(client));
  }
}

void Listener::pause() {
  loop_->unwatch(fd_.get());
  pause_timer_ = loop_->schedule(std::chrono::milliseconds(100), [this] {
    pause_timer_ = 0;
    watch();
  });
}

void Listener::stop() {
  if (loop_ != nullptr) {
    std::promise<void> done;
    loop_->post([this, &done] {  // In-line when already on the loop.
      if (pause_timer_ != 0) loop_->cancel(pause_timer_);
      loop_->unwatch(fd_.get());
      done.set_value();
    });
    done.get_future().wait();
  }
  fd_.reset();
  loop_ = nullptr;
}

}  // namespace stampede::net
