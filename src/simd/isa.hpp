// Runtime ISA selection for the vectorized DSP kernels.
//
// The kernel layer (kernels.hpp) ships one implementation table per
// instruction set — scalar, SSE2, AVX2 — compiled into per-ISA
// translation units. Other hosts (AArch64 among them) run the scalar
// lane, the bitwise reference. One of them is selected at startup: the best lane the
// CPU supports, unless the ECHOIMAGE_SIMD environment variable or a
// ScopedIsa narrows the choice (the testing hook the differential harness
// and the lane sweeps use to run every lane on one machine). Those two are
// the only ways to force a lane.
//
// Bit-transparency contract. Every f64 kernel produces bit-identical
// results on every ISA lane: implementations use only vertical (element-
// wise) SIMD arithmetic in the exact association order of the scalar
// reference, never reassociated horizontal reductions. Switching lanes can
// therefore never change an image, a golden file, or a cached weight —
// lanes differ in speed only (see DESIGN.md, "SIMD model").
//
// Thread safety: the ambient lane (ECHOIMAGE_SIMD, else the best lane) is
// resolved once, in a function-local static, so concurrent first callers
// are safe. A ScopedIsa writes a plain global: create it from a
// single-threaded section before parallel work is launched (the pool's
// task handoff publishes the write to the workers).
#pragma once

#include <string>
#include <vector>

namespace echoimage::simd {

/// Instruction-set lanes, in ascending preference order.
enum class Isa {
  kScalar = 0,  ///< portable reference; always compiled, always available
  kSse2 = 1,    ///< x86-64 baseline (128-bit)
  kAvx2 = 2,    ///< 256-bit x86
};

/// Short lowercase name ("scalar", "sse2", "avx2").
[[nodiscard]] const char* isa_name(Isa isa);

/// Parse an ISA name (the ECHOIMAGE_SIMD spellings, plus "auto"). Throws
/// std::invalid_argument on anything else. "auto" returns the best
/// supported lane.
[[nodiscard]] Isa parse_isa(const std::string& name);

/// True when the lane was compiled in AND the running CPU supports it.
/// kScalar is always supported.
[[nodiscard]] bool isa_supported(Isa isa);

/// Every supported lane, ascending (kScalar first). The differential
/// harness iterates this to run each kernel on every lane the machine has.
[[nodiscard]] std::vector<Isa> supported_isas();

/// Best supported lane (ignores any override).
[[nodiscard]] Isa best_isa();

/// The lane the kernel table currently dispatches to. Resolution order:
/// the innermost live ScopedIsa > ECHOIMAGE_SIMD env var (read once, at
/// first use) > best_isa().
[[nodiscard]] Isa active_isa();

/// RAII lane forcing for tests and lane sweeps: forces `isa` on
/// construction (it must be supported; throws std::invalid_argument
/// otherwise), restores the previous selection state on destruction.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  bool had_override_;
  Isa previous_;
};

}  // namespace echoimage::simd
