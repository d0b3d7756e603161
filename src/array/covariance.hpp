// Spatial covariance estimation for MVDR beamforming.
//
// The MVDR weights (paper Eq. 8) need rho_n, the normalized covariance of
// the background noise across the M microphones. We estimate it from
// noise-only snapshots of the analytic signals.
#pragma once

#include <cstddef>
#include <vector>

#include "array/geometry.hpp"
#include "linalg/matrix.hpp"

namespace echoimage::array {

using echoimage::dsp::Complex;
using echoimage::dsp::ComplexSignal;
using echoimage::linalg::CMatrix;

/// Sample covariance R = (1/N) sum_t x(t) x(t)^H over snapshots
/// t in [first, first+count) of the per-channel analytic signals. Channels
/// shorter than the range contribute zeros. Throws std::invalid_argument
/// when `channels` is empty or count == 0.
[[nodiscard]] CMatrix spatial_covariance(
    const std::vector<ComplexSignal>& channels, std::size_t first,
    std::size_t count);

/// Covariance normalized so that the mean diagonal equals 1 (the paper's
/// "normalized covariance matrix of the background noise"). Degenerate
/// (all-zero) input falls back to the identity.
[[nodiscard]] CMatrix normalized_covariance(
    const std::vector<ComplexSignal>& channels, std::size_t first,
    std::size_t count);

/// Identity covariance of size M — the spatially-white-noise assumption
/// under which MVDR reduces to delay-and-sum.
[[nodiscard]] CMatrix white_noise_covariance(std::size_t num_mics);

/// Principal submatrix of a covariance over the active channels (empty
/// mask = all): the covariance the surviving subarray actually sees,
/// rather than a full-size matrix poisoned by a dead channel's zeros or
/// garbage. Throws std::invalid_argument on a mask/matrix size mismatch or
/// when the mask leaves no channel.
[[nodiscard]] CMatrix masked_covariance(const CMatrix& full,
                                        const ChannelMask& mask);

}  // namespace echoimage::array
