// Memoized beamformer weights, formerly on the imaging hot path.
//
// No longer used by core::AcousticImager, which solves every weight inline
// (DESIGN.md, "Gate table"): at paper scale this cache missed most lookups
// and each miss's exclusive lock serialised the sweep. It stays only while
// external callers still read hit-rate accounting through
// AcousticImager::weight_cache(), which now always returns null.
//
// Constructing one acoustic image steers the array to G x G grid
// directions per spectral band; each MVDR steer costs a steering-vector
// evaluation (per-channel trig) plus a covariance solve. All of that is a
// pure function of (grid geometry, plane distance, speed of sound,
// surviving subarray, noise covariance), so repeated beeps at the same
// estimated distance — the common case, since a batch shares one distance
// estimate and users stand still between beeps — can reuse the weights
// verbatim.
//
// Keying. An entry is identified by:
//   * band + grid index          — which steering direction,
//   * quantized plane distance   — distances within one quantum share an
//                                  entry (the stored weights are the ones
//                                  computed at the first-seen distance;
//                                  the default 1 mm quantum is far below
//                                  the distance estimator's noise floor),
//   * speed-of-sound bit pattern — a recalibrated c can never alias a
//                                  stale entry,
//   * channel-mask bits          — a degraded subarray can never alias the
//                                  full array (weight vectors even differ
//                                  in length),
//   * covariance fingerprint     — a different noise field invalidates the
//                                  MVDR solve,
//   * mvdr flag                  — MVDR and delay-and-sum never mix.
//
// Determinism. Weights are computed by the caller and inserted verbatim,
// and a hit returns exactly the inserted bits. With a nonzero distance
// quantum those are the bits of the first distance seen in the quantum,
// so a result can depend on request order: a capture at 0.7004 m replays
// the weights of one imaged earlier at 0.7000 m. Eviction is wholesale:
// when the entry cap is reached the cache is flushed and re-seeded, so a
// lookup can never observe a partially evicted (stale) state.
//
// Thread safety: lookups take a shared lock, inserts an exclusive lock
// on a runtime::sync::SharedMutex capability, so the entry map's lock
// discipline is proven by the Clang thread-safety build; hit/miss
// accounting goes through obs::Counter handles (sharded per pool worker,
// merged exactly on read). By default the cache binds counters in a
// private registry; `attach_metrics` rebinds them into the system-wide
// observability registry so cache behaviour shows up in trace reports.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "array/covariance.hpp"
#include "array/geometry.hpp"
#include "obs/metrics.hpp"
#include "runtime/sync.hpp"

namespace echoimage::array {

struct WeightKey {
  std::uint32_t band = 0;
  std::uint32_t grid_index = 0;
  std::int64_t distance_q = 0;     ///< quantized plane distance
  std::uint64_t speed_bits = 0;    ///< bit pattern of the speed of sound
  std::uint64_t mask_bits = 0;     ///< active-channel bitset (see mask_bits)
  std::uint64_t cov_fingerprint = 0;
  bool mvdr = true;

  bool operator==(const WeightKey&) const = default;
};

struct WeightKeyHash {
  [[nodiscard]] std::size_t operator()(const WeightKey& k) const;
};

struct WeightCacheConfig {
  /// Entry cap; reaching it flushes the cache (wholesale eviction). The
  /// default holds ~20 full 48x48 x 5-band images worth of weights.
  std::size_t capacity = 1u << 18;
  /// Plane distances are quantized to this step for the key; <= 0 keys on
  /// the exact bit pattern.
  units::Meters distance_quantum{1e-3};
};

struct WeightCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t flushes = 0;  ///< wholesale evictions

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class WeightCache {
 public:
  explicit WeightCache(WeightCacheConfig config = {});

  [[nodiscard]] const WeightCacheConfig& config() const { return config_; }

  /// Distance quantization used for keys (bit pattern when quantum <= 0).
  [[nodiscard]] std::int64_t quantize_distance(units::Meters distance) const;

  /// Canonical 64-bit encoding of an active-channel mask (empty mask = all
  /// `num_channels` active). Masks beyond 64 channels are rejected with
  /// std::invalid_argument — far beyond any supported array.
  [[nodiscard]] static std::uint64_t mask_bits(const ChannelMask& mask,
                                               std::size_t num_channels);

  /// FNV-1a over the covariance matrix bytes + shape: entries solved
  /// against different noise fields never collide in practice.
  [[nodiscard]] static std::uint64_t fingerprint(const CMatrix& cov);

  /// Copy the cached weights into `out` and count a hit; false (and a
  /// counted miss) when absent.
  [[nodiscard]] bool lookup(const WeightKey& key,
                            std::vector<Complex>& out) const;

  /// Insert (first writer wins; a racing duplicate is dropped — both
  /// computed identical bits).
  void insert(const WeightKey& key, const std::vector<Complex>& weights);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] WeightCacheStats stats() const;
  /// Zero the counters (const: accounting is observational state, so a
  /// bench can reset it through the imager's read-only cache handle).
  void reset_stats() const;
  void clear();

  /// Rebind the accounting counters (`weight_cache.hits` etc.) into an
  /// external registry — the system observability registry — instead of
  /// the private fallback. Counts recorded before the rebind stay in the
  /// old registry, so attach before first use. `registry` must outlive
  /// this cache.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  void bind_counters(obs::MetricsRegistry& registry);

  WeightCacheConfig config_;
  runtime::sync::SharedMutex mutex_;
  std::unordered_map<WeightKey, std::vector<Complex>, WeightKeyHash> entries_
      EI_GUARDED_BY(mutex_);
  /// Owns the counters until attach_metrics points them elsewhere.
  std::shared_ptr<obs::MetricsRegistry> fallback_registry_;
  const obs::Counter* hits_ = nullptr;
  const obs::Counter* misses_ = nullptr;
  const obs::Counter* insertions_ = nullptr;
  const obs::Counter* flushes_ = nullptr;
};

}  // namespace echoimage::array
