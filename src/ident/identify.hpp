// Two-stage 1:N identification over the durable template gallery.
//
// "Who is speaking to me" against 100k+ enrolled users cannot afford one
// SVDD evaluation per user per probe. The Identifier splits the question:
//
//   Stage 1 (prefilter): score the probe against every stored centroid —
//     one contiguous O(N x d) linear-algebra pass (ident/centroid_index,
//     linalg/dense), parallelized over runtime::ThreadPool — and keep the
//     top-k shortlist with deterministic lowest-index tie-breaking.
//   Stage 2 (verify): run the expensive evidence only on the shortlist:
//     each candidate's own SVDD spoofer gate + calibrated verifier
//     (TemplateRecord's 1:1 authenticator, LRU-cached with exact hit/miss
//     accounting). The winner is the nearest accepted candidate: the
//     first one in shortlist (prefilter distance) order whose verifier
//     accepts. SVDD margins are normalized per user, so they do not rank
//     candidates against each other.
//
// Honesty contract (the store's quarantine semantics, extended to 1:N):
// a quarantined shard removes its users from the index, so a probe of
// such a user matches nothing. Answering kUnknown would be a lie — the
// user may well be enrolled, just unreadable — so whenever no candidate
// verifies AND storage is degraded, the result is kAbstain with
// AbstainReason::kStorage. A probe that does verify against a healthy
// shard still identifies: corruption elsewhere must not blind the whole
// gallery. An abstain is never a wrong accept.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/authenticator.hpp"
#include "ident/centroid_index.hpp"
#include "ident/shortlist.hpp"
#include "ident/verifier_cache.hpp"
#include "obs/observability.hpp"
#include "runtime/thread_pool.hpp"
#include "store/store.hpp"

namespace echoimage::ident {

struct IdentConfig {
  /// Stage-1 shortlist size. k >= gallery size degrades to exhaustive
  /// search (every enrolled user verified).
  std::size_t shortlist_k = 16;
  Metric metric = Metric::kSquaredEuclidean;
  /// Prefilter workers (0 = one per hardware thread). The shortlist is
  /// bit-identical for every value.
  std::size_t num_threads = 1;
  /// Stage-2 verifier LRU capacity; 0 disables caching (results are
  /// bit-identical either way — the cache trades deserialization work,
  /// never answers).
  std::size_t verifier_cache = 256;

  void validate() const;  ///< throws std::invalid_argument
};

enum class IdentifyStatus {
  kIdentified,  ///< exactly one enrolled user verified best
  kUnknown,     ///< storage healthy, nobody on the shortlist verified
  kAbstain,     ///< storage degraded: "I cannot know" (never a wrong accept)
};

[[nodiscard]] const char* to_string(IdentifyStatus status);

struct IdentifyResult {
  IdentifyStatus status = IdentifyStatus::kUnknown;
  int user_id = -1;         ///< valid when kIdentified
  double svdd_score = 0.0;  ///< winning verifier's decision value
  double distance = 0.0;    ///< winner's stage-1 distance
  core::AbstainReason abstain_reason = core::AbstainReason::kNone;
  /// Stage-1 output, nearest first (shortlist[i].user_id etc.).
  std::vector<Candidate> shortlist;
  /// Stage-2 verifier evaluations actually run (<= shortlist size).
  std::size_t verifier_runs = 0;

  /// Decision-space view for callers speaking AuthDecision (the serve
  /// layer): identified -> accepted, unknown -> rejected, abstain ->
  /// abstained with the carried reason.
  [[nodiscard]] core::AuthDecision to_decision() const;
};

/// Threading contract (capability model, DESIGN "Lock-capability model"):
/// an Identifier serves one probe at a time — refresh() swaps the index
/// and clears the verifier cache, so callers serialize identify()/
/// refresh() externally (serve::make_identify_processor holds a
/// runtime::RegionLock across each call). The pieces an Identifier leans
/// on carry their own Clang-verified capabilities: the store's internal
/// SharedMutex and the verifier cache's Mutex (lock order: cache before
/// store — the loader runs under the cache lock).
class Identifier {
 public:
  /// The store must outlive the Identifier. `obs` null = observability off.
  Identifier(const store::TemplateStore& store, IdentConfig config = {},
             std::shared_ptr<const obs::Observability> obs = nullptr);

  void attach_observability(std::shared_ptr<const obs::Observability> obs);

  [[nodiscard]] const IdentConfig& config() const { return config_; }
  [[nodiscard]] const CentroidIndex& index() const { return index_; }
  [[nodiscard]] const VerifierCache& cache() const { return *cache_; }

  /// Rebuild the centroid index (and drop cached verifiers) iff the store
  /// has moved to a new generation since the last build. Returns true when
  /// a rebuild happened. identify() calls this itself; exposed so callers
  /// can pay the rebuild at a quiet moment.
  bool refresh();

  /// Identify one probe feature vector (the pipeline's per-image feature).
  [[nodiscard]] IdentifyResult identify(const std::vector<double>& feature);

 private:
  [[nodiscard]] std::shared_ptr<const core::Authenticator> load_verifier(
      int user_id);

  const store::TemplateStore* store_;
  IdentConfig config_;
  runtime::ThreadPool pool_;
  CentroidIndex index_;
  bool index_built_ = false;
  /// Stage-2 lookups that answered kQuarantined since the last rebuild:
  /// fsck may quarantine a shard *after* the index snapshot, and the
  /// abstain policy must see it without waiting for a commit.
  bool saw_quarantined_lookup_ = false;
  std::unique_ptr<VerifierCache> cache_;
  std::vector<double> distances_;  ///< reused stage-1 scratch

  std::shared_ptr<const obs::Observability> obs_;
  const obs::Tracer* tracer_ = nullptr;
  const obs::Counter* identified_ = nullptr;
  const obs::Counter* unknown_ = nullptr;
  const obs::Counter* abstained_storage_ = nullptr;
  const obs::Counter* rebuilds_ = nullptr;
  const obs::Histogram* shortlist_size_ = nullptr;
  const obs::Histogram* verifier_runs_hist_ = nullptr;
};

}  // namespace echoimage::ident
