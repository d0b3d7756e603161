#include "dsp/matched_filter.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "simd/kernels.hpp"

namespace echoimage::dsp {

std::size_t matched_filter_fft_length(std::size_t received_length,
                                      std::size_t template_length) {
  return next_pow2(received_length + template_length - 1);
}

ComplexSignal template_spectrum(std::span<const Sample> tmpl,
                                std::size_t fft_length) {
  if (fft_length < tmpl.size())
    throw std::invalid_argument("template_spectrum: FFT shorter than template");
  return fft_pow2_padded(tmpl, fft_length);
}

ComplexSignal matched_filter_complex(const ComplexSignal& received,
                                     std::span<const Complex> spectrum) {
  if (received.empty() || spectrum.empty())
    return ComplexSignal(received.size(), Complex(0.0, 0.0));
  const std::size_t m = spectrum.size();
  if (m < received.size())
    throw std::invalid_argument(
        "matched_filter_complex: spectrum shorter than the signal");
  ComplexSignal fr = fft_pow2_padded(received, m);
  // Correlation: IFFT(R * conj(S)); non-negative lags land at the front.
  simd::kernels().complex_conj_mul_f64(fr.data(), spectrum.data(), m);
  fft_pow2_in_place(fr, true);
  fr.resize(received.size());
  return fr;
}

ComplexSignal matched_filter_complex(const ComplexSignal& received,
                                     std::span<const Sample> tmpl) {
  if (received.empty() || tmpl.empty())
    return ComplexSignal(received.size(), Complex(0.0, 0.0));
  return matched_filter_complex(
      received, template_spectrum(tmpl, matched_filter_fft_length(
                                            received.size(), tmpl.size())));
}

Signal matched_filter(std::span<const Sample> received,
                      std::span<const Sample> tmpl) {
  const ComplexSignal y = matched_filter_complex(
      ComplexSignal(received.begin(), received.end()), tmpl);
  Signal out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i].real();
  return out;
}

Signal matched_filter_envelope(const ComplexSignal& received,
                               std::span<const Sample> tmpl) {
  // Correlating the analytic signal with a real template yields the analytic
  // correlation, so the magnitude is exactly the correlation envelope.
  const ComplexSignal y = matched_filter_complex(received, tmpl);
  Signal out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = std::abs(y[i]);
  return out;
}

}  // namespace echoimage::dsp
