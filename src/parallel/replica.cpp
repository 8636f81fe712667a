#include "parallel/replica.hpp"

#include "sim/parse.hpp"

namespace dyncdn::parallel {

std::size_t resolve_threads(const ExecutorConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const auto v = sim::env_uint("DYNCDN_THREADS"); v && *v > 0) return *v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace dyncdn::parallel
