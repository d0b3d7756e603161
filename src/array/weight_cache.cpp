#include "array/weight_cache.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace echoimage::array {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}

}  // namespace

std::size_t WeightKeyHash::operator()(const WeightKey& k) const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, (static_cast<std::uint64_t>(k.band) << 32) | k.grid_index);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(k.distance_q));
  h = fnv1a_u64(h, k.speed_bits);
  h = fnv1a_u64(h, k.mask_bits);
  h = fnv1a_u64(h, k.cov_fingerprint);
  h = fnv1a_u64(h, k.mvdr ? 1u : 0u);
  return static_cast<std::size_t>(h);
}

WeightCache::WeightCache(WeightCacheConfig config) : config_(config) {
  if (config_.capacity == 0)
    throw std::invalid_argument("WeightCache: capacity must be positive");
  fallback_registry_ = std::make_shared<obs::MetricsRegistry>();
  bind_counters(*fallback_registry_);
}

void WeightCache::bind_counters(obs::MetricsRegistry& registry) {
  hits_ = &registry.counter("weight_cache.hits");
  misses_ = &registry.counter("weight_cache.misses");
  insertions_ = &registry.counter("weight_cache.insertions");
  flushes_ = &registry.counter("weight_cache.flushes");
}

void WeightCache::attach_metrics(obs::MetricsRegistry& registry) {
  bind_counters(registry);
  fallback_registry_.reset();
}

std::int64_t WeightCache::quantize_distance(units::Meters distance) const {
  const double distance_m = distance.value();
  if (config_.distance_quantum.value() <= 0.0)
    return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(distance_m));
  return static_cast<std::int64_t>(
      std::llround(distance_m / config_.distance_quantum.value()));
}

std::uint64_t WeightCache::mask_bits(const ChannelMask& mask,
                                     std::size_t num_channels) {
  if (num_channels > 64 || mask.size() > 64)
    throw std::invalid_argument("WeightCache: masks beyond 64 channels");
  if (mask.empty()) {
    // Empty mask = full array; encode as its explicit all-active bitset so
    // {} and {true, true, ...} share entries (they beamform identically).
    return num_channels >= 64 ? ~0ull : (1ull << num_channels) - 1ull;
  }
  std::uint64_t bits = 0;
  for (std::size_t c = 0; c < mask.size(); ++c)
    if (mask[c]) bits |= 1ull << c;
  return bits;
}

std::uint64_t WeightCache::fingerprint(const CMatrix& cov) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, cov.rows());
  h = fnv1a_u64(h, cov.cols());
  if (!cov.data().empty())
    h = fnv1a(h, cov.data().data(), cov.data().size() * sizeof(Complex));
  return h;
}

bool WeightCache::lookup(const WeightKey& key,
                         std::vector<Complex>& out) const {
  {
    const runtime::sync::SharedLockGuard lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      out = it->second;
      hits_->add();
      return true;
    }
  }
  misses_->add();
  return false;
}

void WeightCache::insert(const WeightKey& key,
                         const std::vector<Complex>& weights) {
  const runtime::sync::LockGuard lock(mutex_);
  if (entries_.size() >= config_.capacity && !entries_.contains(key)) {
    entries_.clear();
    flushes_->add();
  }
  if (entries_.emplace(key, weights).second) insertions_->add();
}

std::size_t WeightCache::size() const {
  const runtime::sync::SharedLockGuard lock(mutex_);
  return entries_.size();
}

WeightCacheStats WeightCache::stats() const {
  WeightCacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.insertions = insertions_->value();
  s.flushes = flushes_->value();
  return s;
}

void WeightCache::reset_stats() const {
  hits_->reset();
  misses_->reset();
  insertions_->reset();
  flushes_->reset();
}

void WeightCache::clear() {
  const runtime::sync::LockGuard lock(mutex_);
  if (!entries_.empty()) flushes_->add();
  entries_.clear();
}

}  // namespace echoimage::array
