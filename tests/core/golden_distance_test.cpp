// Golden distance regression: the estimator's whole DistanceEstimate, bit
// for bit, for each steering mode (MVDR, delay-and-sum, single microphone)
// with the capture's noise-only recording, without it (spatially white
// noise), and with channels 1 and 4 masked out. Scalars are pinned as
// hexfloats; the averaged envelope and the peak list as 64-bit FNV-1a
// digests of their bit patterns. The single-microphone cases listen to
// microphone 1, so the masked case takes the fallback to the first
// surviving microphone.
//
// Regenerate (after an INTENDED numerical change) with:
//   ECHOIMAGE_REGEN_GOLDEN=1 ./echoimage_tests
//       --gtest_filter='GoldenDistance.*'
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/distance.hpp"
#include "eval/dataset.hpp"
#include "eval/roster.hpp"

#ifndef ECHOIMAGE_TEST_DATA_DIR
#error "ECHOIMAGE_TEST_DATA_DIR must be defined by the build"
#endif

namespace echoimage::core {
namespace {

std::string golden_path() {
  return std::string(ECHOIMAGE_TEST_DATA_DIR) + "/golden_distance.txt";
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string describe(const DistanceEstimate& e) {
  Fnv1a envelope, peaks;
  for (const double v : e.averaged_envelope) envelope.add(v);
  for (const echoimage::dsp::Peak& p : e.peaks) {
    peaks.add(static_cast<std::uint64_t>(p.index));
    peaks.add(p.value);
  }
  std::ostringstream os;
  os << "valid=" << e.valid << std::hexfloat
     << " tau_direct=" << e.tau_direct_s << " tau_echo=" << e.tau_echo_s
     << " slant=" << e.slant_distance_m << " user=" << e.user_distance_m
     << " tau_centroid=" << e.tau_echo_centroid_s
     << " user_centroid=" << e.user_distance_centroid_m << std::hex
     << " envelope=" << envelope.value() << std::dec << "/"
     << e.averaged_envelope.size() << std::hex << " peaks=" << peaks.value()
     << std::dec << "/" << e.peaks.size();
  return os.str();
}

/// The transcript: one line per (mode, noise/mask) case.
std::string render_estimates() {
  const auto geometry = echoimage::array::make_respeaker_array();
  const auto users =
      echoimage::eval::make_users(echoimage::eval::make_roster(), 7);
  const echoimage::eval::DataCollector collector(
      echoimage::sim::CaptureConfig{}, geometry, 7);
  const auto batch =
      collector.collect(users[0], echoimage::eval::CollectionConditions{}, 3);
  echoimage::array::ChannelMask degraded(geometry.num_mics(), true);
  degraded[1] = false;
  degraded[4] = false;

  struct Mode {
    const char* name;
    SteeringMode mode;
  };
  std::ostringstream out;
  for (const Mode& m : {Mode{"mvdr", SteeringMode::kMvdr},
                        Mode{"das", SteeringMode::kDelayAndSum},
                        Mode{"single_mic", SteeringMode::kSingleMic}}) {
    DistanceEstimatorConfig cfg;
    cfg.mode = m.mode;
    cfg.single_mic_index = 1;
    const DistanceEstimator estimator(cfg, geometry);
    out << m.name << " noise=capture "
        << describe(estimator.estimate(batch.beeps, batch.noise_only)) << "\n";
    out << m.name << " noise=none " << describe(estimator.estimate(batch.beeps))
        << "\n";
    out << m.name << " mask=1,4 "
        << describe(
               estimator.estimate(batch.beeps, batch.noise_only, degraded))
        << "\n";
  }
  return out.str();
}

TEST(GoldenDistance, EstimatesMatchThePinnedTranscript) {
  const std::string actual = render_estimates();
  if (std::getenv("ECHOIMAGE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " — run with ECHOIMAGE_REGEN_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace echoimage::core
