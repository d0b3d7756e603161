#include "dsp/window.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace echoimage::dsp {

double window_value(WindowType type, double u, double tukey_alpha) {
  if (u < 0.0 || u > 1.0) return 0.0;
  constexpr double pi = std::numbers::pi;
  switch (type) {
    case WindowType::kRectangular:
      return 1.0;
    case WindowType::kHann:
      return 0.5 - 0.5 * std::cos(2.0 * pi * u);
    case WindowType::kHamming:
      return 0.54 - 0.46 * std::cos(2.0 * pi * u);
    case WindowType::kBlackman:
      return 0.42 - 0.5 * std::cos(2.0 * pi * u) +
             0.08 * std::cos(4.0 * pi * u);
    case WindowType::kTukey: {
      const double a = std::clamp(tukey_alpha, 0.0, 1.0);
      if (a <= 0.0) return 1.0;
      if (u < a / 2.0)
        return 0.5 * (1.0 + std::cos(pi * (2.0 * u / a - 1.0)));
      if (u > 1.0 - a / 2.0)
        return 0.5 * (1.0 + std::cos(pi * (2.0 * (1.0 - u) / a - 1.0)));
      return 1.0;
    }
  }
  throw std::invalid_argument("window_value: unknown window type");
}

}  // namespace echoimage::dsp
