#ifndef WDC_ENGINE_EXECUTOR_HPP
#define WDC_ENGINE_EXECUTOR_HPP

/// @file executor.hpp
/// The engine's one thread substrate, shared by the sweep pool and the
/// sharded core.

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace wdc {

/// Threads a pool uses: `requested` (0 = the hardware, 1 if that is unknown),
/// never more than `cap`.
inline unsigned resolve_threads(unsigned requested, std::size_t cap) {
  if (requested == 0)
    requested = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<std::size_t>(requested, cap));
}

/// Run `body(t)` for every t in [0, threads) and join: inline when `threads`
/// is 1, else one std::thread each. `body` must not throw (a throw on a
/// std::thread ends the process); callers catch inside it and rethrow after.
template <typename Body>
void run_on_threads(unsigned threads, const Body& body) {
  if (threads == 1) {
    body(0u);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&body, t] { body(t); });
  for (auto& th : pool) th.join();
}

}  // namespace wdc

#endif  // WDC_ENGINE_EXECUTOR_HPP
