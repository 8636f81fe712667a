#include "parallel/replica.hpp"

#include "sim/parse.hpp"

namespace dyncdn::parallel {

namespace {

/// SplitMix64 finalizer: the same mixing core RngFactory uses, applied to
/// the combined (base, index) word so replica universes never collide with
/// the named streams derived inside a replica.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed,
                           std::uint64_t replica_index) {
  return mix(mix(base_seed) ^ (replica_index * 0xd1b54a32d192ed03ULL + 1));
}

std::size_t resolve_threads(const ExecutorConfig& config) {
  if (config.threads > 0) return config.threads;
  if (const auto v = sim::env_uint("DYNCDN_THREADS"); v && *v > 0) return *v;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t resolve_grain(const ExecutorConfig& config) {
  if (config.grain > 0) return config.grain;
  if (const auto v = sim::env_uint("DYNCDN_GRAIN"); v && *v > 0) return *v;
  return 1;
}

bool grain_is_auto(const ExecutorConfig& config) {
  if (config.grain > 0) return false;
  const auto v = sim::env_uint("DYNCDN_GRAIN");
  return !v || *v == 0;
}

}  // namespace dyncdn::parallel
