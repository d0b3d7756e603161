#include "simd/isa.hpp"

#include <cstdlib>
#include <stdexcept>

#include "simd/kernels.hpp"

namespace echoimage::simd {

namespace {

// The forced lane's table (null = no override). A plain global by design
// (src/simd may not reach for std::atomic — echolint R2 — and does not
// need to): ScopedIsa is created from single-threaded sections, and the
// pool's task handoff publishes the write before any worker reads it.
const KernelTable* g_override = nullptr;

const KernelTable* table_or_null(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_table();
    case Isa::kSse2:
      return detail::sse2_table();
    case Isa::kAvx2:
      return detail::avx2_table();
  }
  return nullptr;
}

// The lane used when nothing is forced: ECHOIMAGE_SIMD, else the best
// supported lane. Resolved once: a function-local static is initialized
// exactly once even when the first callers are concurrent pool workers.
Isa ambient_isa() {
  static const Isa ambient = [] {
    const char* env = std::getenv("ECHOIMAGE_SIMD");
    if (env == nullptr) return best_isa();
    const Isa parsed = parse_isa(env);  // throws on junk: fail loudly
    if (!isa_supported(parsed))
      throw std::invalid_argument(
          std::string("ECHOIMAGE_SIMD requests unsupported lane: ") + env);
    return parsed;
  }();
  return ambient;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "sse2") return Isa::kSse2;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "auto") return best_isa();
  throw std::invalid_argument("unknown SIMD lane name: '" + name +
                              "' (expected scalar|sse2|avx2|auto)");
}

bool isa_supported(Isa isa) {
  if (table_or_null(isa) == nullptr) return false;  // not compiled in
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::kSse2:
      return true;  // x86-64 baseline
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    default:
      return false;
#endif
  }
  return false;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2})
    if (isa_supported(isa)) out.push_back(isa);
  return out;
}

Isa best_isa() {
  Isa best = Isa::kScalar;
  for (const Isa isa : {Isa::kSse2, Isa::kAvx2})
    if (isa_supported(isa)) best = isa;
  return best;
}

Isa active_isa() {
  return g_override != nullptr ? g_override->isa : ambient_isa();
}

ScopedIsa::ScopedIsa(Isa isa)
    : had_override_(g_override != nullptr),
      previous_(had_override_ ? g_override->isa : Isa::kScalar) {
  if (!isa_supported(isa))
    throw std::invalid_argument(std::string("cannot force SIMD lane '") +
                                isa_name(isa) +
                                "': not supported on this machine/build");
  g_override = table_or_null(isa);
}

ScopedIsa::~ScopedIsa() {
  g_override = had_override_ ? table_or_null(previous_) : nullptr;
}

const KernelTable& kernels() {
  if (g_override != nullptr) return *g_override;
  static const KernelTable& ambient = kernels_for(ambient_isa());
  return ambient;
}

const KernelTable& kernels_for(Isa isa) {
  const KernelTable* t = isa_supported(isa) ? table_or_null(isa) : nullptr;
  if (t == nullptr)
    throw std::invalid_argument(std::string("SIMD lane '") + isa_name(isa) +
                                "' is not available here");
  return *t;
}

}  // namespace echoimage::simd
