#include "ident/identify.hpp"

#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace echoimage::ident {

namespace {

const std::vector<double> kCountBuckets = {0,  1,  2,   4,   8,
                                           16, 32, 64, 128, 256};

}  // namespace

void IdentConfig::validate() const {
  if (shortlist_k == 0)
    throw std::invalid_argument(
        "IdentConfig: shortlist_k must be >= 1 (stage 2 needs candidates)");
}

const char* to_string(IdentifyStatus status) {
  switch (status) {
    case IdentifyStatus::kIdentified:
      return "identified";
    case IdentifyStatus::kUnknown:
      return "unknown";
    case IdentifyStatus::kAbstain:
      return "abstain";
  }
  return "invalid";
}

core::AuthDecision IdentifyResult::to_decision() const {
  switch (status) {
    case IdentifyStatus::kIdentified: {
      core::AuthDecision d;
      d.accepted = true;
      d.user_id = user_id;
      d.svdd_score = svdd_score;
      d.outcome = core::AuthOutcome::kAccepted;
      return d;
    }
    case IdentifyStatus::kUnknown:
      return core::AuthDecision{};  // rejected: provably nobody enrolled
    case IdentifyStatus::kAbstain:
      return core::AuthDecision::abstain(
          abstain_reason != core::AbstainReason::kNone
              ? abstain_reason
              : core::AbstainReason::kStorage);
  }
  return core::AuthDecision{};
}

Identifier::Identifier(const store::TemplateStore& store, IdentConfig config,
                       std::shared_ptr<const obs::Observability> obs)
    : store_(&store),
      config_((config.validate(), std::move(config))),
      pool_(runtime::resolve_workers(config_.num_threads)),
      cache_(std::make_unique<VerifierCache>(
          config_.verifier_cache,
          [this](int user_id) { return load_verifier(user_id); })) {
  attach_observability(std::move(obs));
}

void Identifier::attach_observability(
    std::shared_ptr<const obs::Observability> obs) {
  obs_ = std::move(obs);
  if (obs_ == nullptr) {
    tracer_ = nullptr;
    identified_ = unknown_ = abstained_storage_ = rebuilds_ = nullptr;
    shortlist_size_ = verifier_runs_hist_ = nullptr;
    cache_->attach_counters(nullptr, nullptr);
    return;
  }
  tracer_ = obs::Observability::tracer_of(obs_.get());
  obs::MetricsRegistry& m = obs_->metrics();
  identified_ = &m.counter("ident.identified");
  unknown_ = &m.counter("ident.unknown");
  abstained_storage_ = &m.counter("ident.abstain_storage");
  rebuilds_ = &m.counter("ident.index_rebuilds");
  shortlist_size_ = &m.histogram("ident.shortlist_size", kCountBuckets);
  verifier_runs_hist_ = &m.histogram("ident.verifier_runs", kCountBuckets);
  cache_->attach_counters(&m.counter("ident.verifier_cache.hits"),
                          &m.counter("ident.verifier_cache.misses"));
}

bool Identifier::refresh() {
  if (index_built_ && store_->generation() == index_.generation())
    return false;
  EI_SPAN(tracer_, "ident.rebuild");
  index_ = CentroidIndex::from_store(*store_);
  cache_->clear();
  saw_quarantined_lookup_ = false;
  index_built_ = true;
  if (rebuilds_ != nullptr) rebuilds_->add();
  return true;
}

std::shared_ptr<const core::Authenticator> Identifier::load_verifier(
    int user_id) {
  const store::LookupResult looked = store_->lookup(user_id);
  switch (looked.status) {
    case store::LookupStatus::kFound:
      // Owned copy: commit() invalidates record pointers, but a cached
      // verifier must stay usable until the Identifier drops the cache on
      // the generation change.
      return std::make_shared<core::Authenticator>(looked.record->verifier);
    case store::LookupStatus::kQuarantined:
      // fsck can quarantine between snapshot and verify; remember it so
      // the abstain policy holds without waiting for a rebuild.
      saw_quarantined_lookup_ = true;
      return nullptr;
    case store::LookupStatus::kAbsent:
      return nullptr;
  }
  return nullptr;
}

IdentifyResult Identifier::identify(const std::vector<double>& feature) {
  refresh();
  EI_SPAN(tracer_, "ident.identify");
  IdentifyResult result;

  {
    EI_SPAN(tracer_, "ident.prefilter");
    index_.distances(feature, config_.metric, pool_, distances_);
    result.shortlist =
        top_k_shortlist(index_, distances_, config_.shortlist_k);
  }
  if (shortlist_size_ != nullptr)
    shortlist_size_->observe(static_cast<double>(result.shortlist.size()));

  std::size_t best = result.shortlist.size();  // npos sentinel
  core::AuthDecision best_decision;
  {
    EI_SPAN(tracer_, "ident.verify");
    for (std::size_t i = 0; i < result.shortlist.size(); ++i) {
      const Candidate& candidate = result.shortlist[i];
      // Re-check the store before trusting the cache: fsck can quarantine
      // a shard without a generation bump, and a verifier cached before
      // that discovery would happily serve the user from bytes the store
      // can no longer prove.
      if (store_->lookup(candidate.user_id).status ==
          store::LookupStatus::kQuarantined) {
        saw_quarantined_lookup_ = true;
        continue;
      }
      const std::shared_ptr<const core::Authenticator> verifier =
          cache_->get(candidate.user_id);
      if (verifier == nullptr) continue;
      ++result.verifier_runs;
      const core::AuthDecision decision = verifier->authenticate(feature);
      if (decision.outcome != core::AuthOutcome::kAccepted) continue;
      // Nearest-accepted wins: the shortlist is already ordered by the
      // prefilter distance (recall@1 ~0.99 at 100k users), and the SVDD is
      // a per-user *gate* — its margin is normalized per user, so ranking
      // candidates by it compares incomparables and measurably misidentifies
      // at scale. Later accepts still run for the exhaustive counters.
      if (best == result.shortlist.size()) {
        best = i;
        best_decision = decision;
      }
    }
  }
  if (verifier_runs_hist_ != nullptr)
    verifier_runs_hist_->observe(static_cast<double>(result.verifier_runs));

  if (best < result.shortlist.size()) {
    result.status = IdentifyStatus::kIdentified;
    result.user_id = result.shortlist[best].user_id;
    result.svdd_score = best_decision.svdd_score;
    result.distance = result.shortlist[best].distance;
    if (identified_ != nullptr) identified_->add();
    return result;
  }
  if (index_.quarantined_shards() > 0 || saw_quarantined_lookup_) {
    // Someone unreadable might be exactly this probe's user: the only
    // honest answer is "I cannot know", never "not enrolled".
    result.status = IdentifyStatus::kAbstain;
    result.abstain_reason = core::AbstainReason::kStorage;
    if (abstained_storage_ != nullptr) abstained_storage_->add();
    return result;
  }
  result.status = IdentifyStatus::kUnknown;
  if (unknown_ != nullptr) unknown_->add();
  return result;
}

}  // namespace echoimage::ident
