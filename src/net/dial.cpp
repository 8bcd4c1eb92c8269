#include "net/dial.hpp"

#include <algorithm>

#include "common/socket.hpp"

namespace stampede::net {

std::chrono::milliseconds next_backoff(int& backoff_ms, int max_ms,
                                       common::Rng& jitter) {
  const auto delay = std::chrono::milliseconds(static_cast<std::int64_t>(
      static_cast<double>(backoff_ms) * jitter.uniform(0.8, 1.2)));
  backoff_ms = std::min(backoff_ms * 2, max_ms);
  return delay;
}

bool exchange_hello(int fd, std::uint32_t channel, std::uint32_t features,
                    int timeout_ms, std::string& carry, Frame* reply,
                    const std::stop_token& stop) {
  const std::string hello = encode_hello(channel, features);
  if (!common::send_all(fd, hello.data(), hello.size())) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[4096];
  for (;;) {
    std::size_t consumed = 0;
    const auto status = decode_frame(carry, consumed, *reply);
    if (status == DecodeStatus::kFrame) {
      carry.erase(0, consumed);
      return true;
    }
    if (status == DecodeStatus::kError || stop.stop_requested() ||
        std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::size_t received = 0;
    const auto got = common::recv_some(fd, chunk, sizeof chunk, 100, &received);
    if (got == common::RecvStatus::kClosed ||
        got == common::RecvStatus::kError) {
      return false;
    }
    if (got == common::RecvStatus::kData) carry.append(chunk, received);
  }
}

}  // namespace stampede::net
