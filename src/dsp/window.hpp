// Window functions used for chirp shaping.
#pragma once

namespace echoimage::dsp {

enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
  kTukey,  ///< Tapered cosine; taper fraction supplied separately.
};

/// Window value at normalized position u in [0, 1]. `tukey_alpha` is the
/// taper fraction for the Tukey window (ignored by other types); outside
/// [0, 1] the window is zero.
[[nodiscard]] double window_value(WindowType type, double u,
                                  double tukey_alpha = 0.5);

}  // namespace echoimage::dsp
