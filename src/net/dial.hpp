#pragma once
// Client dialing helpers shared by net::BusClient and cluster::Link:
// the jittered connect backoff and the blocking HELLO exchange.

#include <chrono>
#include <cstdint>
#include <stop_token>
#include <string>

#include "common/rng.hpp"
#include "net/frame.hpp"

namespace stampede::net {

/// The delay before the next connect attempt: `backoff_ms` with ±20%
/// jitter, so a fleet reconnecting to a restarted peer does not retry in
/// lockstep. Doubles `backoff_ms` (capped at `max_ms`) for the next one.
[[nodiscard]] std::chrono::milliseconds next_backoff(int& backoff_ms,
                                                     int max_ms,
                                                     common::Rng& jitter);

/// Sends HELLO on blocking `fd` and waits up to `timeout_ms` for the
/// peer's first frame (HELLO_OK or a kError refusal), stored in `reply`;
/// bytes past it stay in `carry`. False on a send/recv failure, peer
/// close, undecodable bytes, the deadline, or `stop`.
[[nodiscard]] bool exchange_hello(int fd, std::uint32_t channel,
                                  std::uint32_t features, int timeout_ms,
                                  std::string& carry, Frame* reply,
                                  const std::stop_token& stop = {});

}  // namespace stampede::net
