// identify_gallery: closed loop over ident::Identifier::identify against a
// synthetic 10k-user gallery (eval::make_gallery_records) committed to a
// store::MemoryEnv template store. Probes are fresh session draws of
// enrolled users (genuine) and of bodies the gallery never enrolled
// (impostors), half each. Every kCommitEvery identifications a small batch
// of new enrollments is committed (TemplateStore::commit), so reads run
// beside writes and the next identify pays the index refresh. The
// prefilter uses one worker.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/gallery.hpp"
#include "ident/identify.hpp"
#include "ident/shortlist.hpp"
#include "sim/random.hpp"
#include "store/env.hpp"
#include "store/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = echoimage::core;
namespace eval = echoimage::eval;
namespace ident = echoimage::ident;
namespace store = echoimage::store;

/// The gallery (and the enrollments committed during the run) come from one
/// fixed seed: impostor accept depends strongly on which bodies are
/// enrolled (0.004 to 0.071 across five seeded galleries), so the run seed
/// draws only the probes.
constexpr std::uint64_t kGallerySeed = 0x6A11E4;
constexpr std::size_t kGalleryUsers = 10000;
constexpr std::size_t kFeatureDims = 12;
constexpr std::size_t kShortlistK = 16;
constexpr std::size_t kShards = 32;
/// Identifications per second of --seconds.
constexpr double kIdentifyPerSecond = 2000.0;
/// Enrollment batches: kCommitBatch users every kCommitEvery identifies.
/// A commit rewrites every shard (about 0.4 s at 10k users), so commits
/// take most of the pass.
constexpr std::size_t kCommitEvery = 700;
constexpr std::size_t kCommitBatch = 8;
/// On a shared host the single-threaded pass runs at the speed of whichever
/// CPU it is on (up to 1.6x apart on a 4-vCPU VM, changing over seconds).
/// So the pass is cut into slices of consecutive commit periods, each
/// pinned to the next CPU (CpuRotation), and latency_p50_s, decided_per_s
/// and enroll_commit_s are the fastest slice's: the figures a slow CPU or
/// a slow stretch moves least. The report line keeps every slice's figures
/// and the whole-pass summaries.
constexpr std::size_t kSlices = 8;
/// latency_tail_s is the highest percentile with kTailBeyond samples beyond
/// it. The identifies that pay the index refresh after a commit (about
/// 2 ms, against 0.12 ms for the rest) make up that tail, and their cost
/// swings with the CPU like the rest, so a tail over the whole pass reads
/// whichever speed held most of its refreshes. It is therefore taken per
/// block of at least kTailBlock consecutive commit periods, where it is
/// one of the block's post-commit identifies, and the fastest block's tail
/// is reported.
constexpr std::size_t kTailBlock = kTailBeyond + 1;
/// Never-enrolled impostor bodies are drawn from this many gallery
/// indices past the enrolled ones.
constexpr int kImpostorBodies = 100000;

struct Probe {
  bool genuine = false;
  int user_id = 0;
  std::vector<double> feature;
};

/// A servable gallery: store plus identifier (both pinned in memory: the
/// identifier points at the store, the store at its environment).
struct Gallery {
  std::unique_ptr<store::MemoryEnv> env;
  std::unique_ptr<store::TemplateStore> templates;
  std::unique_ptr<ident::Identifier> identifier;
};

ident::IdentConfig ident_config() {
  ident::IdentConfig config;
  config.shortlist_k = kShortlistK;
  config.num_threads = 1;
  return config;
}

/// Init + commit of the enrolled records + first refresh, with spans
/// around the commit and the refresh when traced.
Gallery open_gallery(const std::vector<store::TemplateRecord>& records,
                     Tracer* tracer) {
  Gallery g;
  g.env = std::make_unique<store::MemoryEnv>();
  store::StoreConfig config;
  config.root = "gallery";
  config.num_shards = kShards;
  g.templates = std::make_unique<store::TemplateStore>(
      store::TemplateStore::init(config, *g.env));
  {
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) span.emplace(*tracer, "store.commit", 0);
    g.templates->commit(records);
  }
  g.identifier =
      std::make_unique<ident::Identifier>(*g.templates, ident_config());
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(*tracer, "ident.refresh", 0);
  g.identifier->refresh();
  return g;
}

/// Identifier::identify recomposed from public calls: refresh when the
/// store moved, prefilter on identifier.index(), then each shortlisted
/// user's store lookup and verifier; the nearest accepted candidate wins.
core::AuthDecision traced_identify(Gallery& g, echoimage::runtime::ThreadPool& pool,
                                   std::vector<double>& distances,
                                   const std::vector<double>& feature,
                                   Tracer& tracer, std::uint64_t request,
                                   std::size_t& verifier_runs) {
  if (g.identifier->index().generation() != g.templates->generation()) {
    auto span = tracer.span("ident.refresh", request);
    g.identifier->refresh();
  }
  const ident::CentroidIndex& index = g.identifier->index();
  std::vector<ident::Candidate> shortlist;
  {
    auto span = tracer.span("ident.prefilter", request);
    index.distances(feature, g.identifier->config().metric, pool, distances);
    shortlist = ident::top_k_shortlist(index, distances, kShortlistK);
  }
  bool quarantined = index.quarantined_shards() > 0;
  core::AuthDecision best;
  for (const ident::Candidate& candidate : shortlist) {
    store::LookupResult looked;
    {
      auto span = tracer.span("store.lookup", request);
      looked = g.templates->lookup(candidate.user_id);
    }
    if (looked.status == store::LookupStatus::kQuarantined) quarantined = true;
    if (looked.status != store::LookupStatus::kFound) continue;
    core::AuthDecision d;
    {
      auto span = tracer.span("core.authenticator.score", request);
      d = looked.record->verifier.authenticate(feature);
    }
    ++verifier_runs;
    // Like Identifier::identify, later candidates still run once one has
    // accepted; the first (nearest) accept wins.
    if (d.outcome == core::AuthOutcome::kAccepted && !best.accepted) {
      best.accepted = true;
      best.user_id = candidate.user_id;
      best.svdd_score = d.svdd_score;
      best.outcome = core::AuthOutcome::kAccepted;
    }
  }
  if (best.accepted) return best;
  return quarantined ? core::AuthDecision::abstain(core::AbstainReason::kStorage)
                     : core::AuthDecision{};
}

}  // namespace

void run_identify_gallery(const Options& options, Result& result) {
  const double inputs_t0 = now_s();
  // Commit periods of kCommitEvery requests; every period but the first
  // opens with a commit.
  const auto periods = static_cast<std::size_t>(std::max(
      static_cast<double>(std::max(kSlices, kTailBlock) + 1),
      std::round(options.seconds * kIdentifyPerSecond / kCommitEvery)));
  const std::size_t count = periods * kCommitEvery;
  const std::size_t batches = periods - 1;

  eval::GalleryConfig gallery;
  gallery.num_users = kGalleryUsers + batches * kCommitBatch;
  gallery.feature_dims = kFeatureDims;
  gallery.seed = kGallerySeed;
  gallery.num_threads = nproc();

  // Probes: one fresh draw per request, never replayed.
  std::vector<Probe> probes(count);
  run_parallel(count, [&](std::size_t i) {
    echoimage::sim::Rng rng(echoimage::sim::mix_seed(options.seed, 0x9E0B + i));
    Probe& p = probes[i];
    p.genuine = i % 2 == 0;
    const int index =
        p.genuine ? rng.uniform_int(0, static_cast<int>(kGalleryUsers) - 1)
                  : static_cast<int>(gallery.num_users) +
                        rng.uniform_int(0, kImpostorBodies - 1);
    p.user_id = gallery.first_user_id + index;
    p.feature = eval::make_gallery_probe(
        gallery, static_cast<std::size_t>(index),
        echoimage::sim::mix_seed(options.seed, i));
  });

  // The records of the later enrollment batches: users past the enrolled
  // ones in the same generation, so they share the gallery's feature space.
  // A record depends on its index only, so these are made before timing
  // and the set-up below makes just the enrolled ones.
  std::vector<store::TemplateRecord> later;
  {
    std::vector<store::TemplateRecord> all = eval::make_gallery_records(gallery);
    later.assign(std::make_move_iterator(all.begin() + kGalleryUsers),
                 std::make_move_iterator(all.end()));
  }
  const auto batch = [&](std::size_t b) {
    const auto first =
        later.begin() + static_cast<std::ptrdiff_t>(b * kCommitBatch);
    return std::vector<store::TemplateRecord>(
        first, first + static_cast<std::ptrdiff_t>(kCommitBatch));
  };

  // Set-up: gallery enrollment (records + verifiers), commit, first
  // refresh.
  result.note("inputs_s", now_s() - inputs_t0);
  result.note("rss_watermark_restarted",
              restart_rss_watermark() ? "true" : "false");
  eval::GalleryConfig enrolled_gallery = gallery;
  enrolled_gallery.num_users = kGalleryUsers;
  std::vector<double> setup_s;
  std::vector<store::TemplateRecord> enrolled;
  std::optional<Gallery> g;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    g.reset();
    enrolled.clear();
    const double t0 = now_s();
    enrolled = eval::make_gallery_records(enrolled_gallery);
    g.emplace(open_gallery(enrolled, nullptr));
    setup_s.push_back(now_s() - t0);
  }

  // Untraced pass.
  std::vector<core::AuthDecision> decisions(count);
  std::vector<double> latency(count);
  std::vector<double> commit_s;
  // Slices group the periods after the first, so each slice's requests
  // pay for the same share of commits.
  const auto slice_of = [&](std::size_t period) {
    return (period - 1) * kSlices / (periods - 1);
  };
  struct Slice {
    double t0 = 0.0;
    double t1 = 0.0;
    std::vector<double> latency;
    std::vector<double> enroll_commit_s;
  };
  std::vector<Slice> slices(kSlices);
  Slice* slice = nullptr;
  // Each slice runs on the next CPU, so the fastest slice is not simply
  // the one the scheduler happened to leave on a fast CPU.
  std::optional<CpuRotation> rotation;
  rotation.emplace();
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  double commit_t0 = -1.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && i % kCommitEvery == 0) {
      const std::size_t s = slice_of(i / kCommitEvery);
      if (&slices[s] != slice) {
        if (slice != nullptr) slice->t1 = now_s();
        rotation->pin(s);
        slice = &slices[s];
        slice->t0 = now_s();
      }
      const std::vector<store::TemplateRecord> upserts =
          batch(i / kCommitEvery - 1);
      commit_t0 = now_s();
      g->templates->commit(upserts);
      commit_s.push_back(now_s() - commit_t0);
    }
    const double t0 = now_s();
    const ident::IdentifyResult r = g->identifier->identify(probes[i].feature);
    const double t1 = now_s();
    latency[i] = t1 - t0;
    decisions[i] = r.to_decision();
    if (slice != nullptr) slice->latency.push_back(t1 - t0);
    if (commit_t0 >= 0.0) {
      slice->enroll_commit_s.push_back(t1 - commit_t0);
      commit_t0 = -1.0;
    }
  }
  slice->t1 = now_s();
  const double wall_s = slice->t1 - wall0;
  const double cpu_s = process_cpu_s() - cpu0;
  rotation.reset();

  Fingerprint fingerprint;
  std::size_t genuine_n = 0, genuine_ok = 0, impostor_n = 0, impostor_ok = 0;
  std::size_t abstained = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const core::AuthDecision& d = decisions[i];
    fingerprint.decision(i, d);
    if (d.outcome == core::AuthOutcome::kAbstained) {
      ++abstained;
      continue;
    }
    const bool accepted = d.outcome == core::AuthOutcome::kAccepted;
    if (probes[i].genuine) {
      ++genuine_n;
      genuine_ok += accepted && d.user_id == probes[i].user_id;
    } else {
      ++impostor_n;
      impostor_ok += accepted;
    }
  }
  if (abstained > 0)
    result.fail(std::to_string(abstained) +
                " identifications abstained against healthy storage");
  result.attempted = count;
  result.decided = count - abstained;
  check_fingerprint(options, "fingerprint", fingerprint.hex(), result);
  const Summary lat = summarize(latency);
  // Every request was decided (an abstain fails the run), so a slice's
  // requests per second are its decisions per second.
  std::vector<double> slice_p50, slice_per_s, slice_enroll_commit_s;
  for (const Slice& s : slices) {
    slice_p50.push_back(median(s.latency));
    slice_per_s.push_back(static_cast<double>(s.latency.size()) /
                          (s.t1 - s.t0));
    slice_enroll_commit_s.push_back(median(s.enroll_commit_s));
  }
  // Tail blocks: the commit periods after the first, in as-equal-as-possible
  // runs of at least kTailBlock periods.
  const std::size_t commits = periods - 1;
  const std::size_t blocks = commits / kTailBlock;
  std::vector<std::vector<double>> block_latency(blocks);
  for (std::size_t i = kCommitEvery; i < count; ++i)
    block_latency[(i / kCommitEvery - 1) * blocks / commits].push_back(
        latency[i]);
  std::vector<double> block_tail, block_tail_level;
  for (const std::vector<double>& b : block_latency) {
    const Summary s = summarize(b);
    block_tail.push_back(s.tail);
    block_tail_level.push_back(s.tail_level);
  }
  const Share genuine = wilson(genuine_ok, genuine_n);
  const Share impostor = wilson(impostor_ok, impostor_n);
  result.note("constants",
              "{\"gallery_users\": " + std::to_string(kGalleryUsers) +
                  ", \"feature_dims\": " + std::to_string(kFeatureDims) +
                  ", \"shortlist_k\": " + std::to_string(kShortlistK) +
                  ", \"shards\": " + std::to_string(kShards) +
                  ", \"identifications_per_run_second\": " +
                  json_number(kIdentifyPerSecond) +
                  ", \"commit_every\": " + std::to_string(kCommitEvery) +
                  ", \"commit_batch\": " + std::to_string(kCommitBatch) +
                  ", \"slices\": " + std::to_string(kSlices) +
                  ", \"tail_block_min_periods\": " +
                  std::to_string(kTailBlock) +
                  ", \"prefilter_workers\": " +
                  std::to_string(ident_config().num_threads) +
                  ", \"impostor_bodies\": " + std::to_string(kImpostorBodies) +
                  ", \"gallery_seed\": " + std::to_string(kGallerySeed) + "}");
  result.note("identifications", static_cast<double>(count));
  result.note("commits", static_cast<double>(commit_s.size()));
  result.note_summary("latency_s", lat);
  result.note("slice_latency_p50_s", slice_p50);
  result.note("slice_decided_per_s", slice_per_s);
  result.note("slice_enroll_commit_s", slice_enroll_commit_s);
  result.note("block_latency_tail_s", block_tail);
  result.note("block_latency_tail_level", block_tail_level);
  result.note_summary("commit_s", summarize(commit_s));
  result.note_share("genuine_accept", genuine);
  result.note_share("impostor_accept", impostor);
  result.note("pass_s", wall_s);
  result.note("setup_samples_s", setup_s);

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.latency_p50_s = *std::min_element(slice_p50.begin(), slice_p50.end());
    e.latency_tail_s = *std::min_element(block_tail.begin(), block_tail.end());
    e.decided_per_s =
        *std::max_element(slice_per_s.begin(), slice_per_s.end());
    e.served_share =
        static_cast<double>(result.decided) / static_cast<double>(count);
    e.genuine_accept = genuine.value();
    e.impostor_accept = impostor.value();
    e.enroll_commit_s = *std::min_element(slice_enroll_commit_s.begin(),
                                          slice_enroll_commit_s.end());
    e.peak_rss_mb = peak_rss_mb();
    emit_end_to_end(e, result);
    return;
  }

  // Traced pass: a fresh store with the same records and commits; each
  // request is recomposed from public calls, then Identifier::identify
  // runs on the same probe (outside the request span) and must agree.
  Tracer tracer;
  g.reset();
  g.emplace(open_gallery(enrolled, &tracer));
  echoimage::runtime::ThreadPool pool(1);
  std::vector<double> distances;
  std::vector<double> traced_latency(count);
  std::size_t recomposed_runs = 0;
  std::size_t verifier_runs = 0;
  const std::uint64_t hits0 = g->identifier->cache().hits();
  const std::uint64_t misses0 = g->identifier->cache().misses();
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && i % kCommitEvery == 0) {
      const std::vector<store::TemplateRecord> upserts =
          batch(i / kCommitEvery - 1);
      auto span = tracer.span("store.commit", i);
      g->templates->commit(upserts);
    }
    const double t0 = now_s();
    core::AuthDecision recomposed;
    {
      auto root = tracer.span("request", i);
      recomposed = traced_identify(*g, pool, distances, probes[i].feature,
                                   tracer, i, recomposed_runs);
    }
    traced_latency[i] = now_s() - t0;
    ident::IdentifyResult r;
    {
      auto span = tracer.span("ident.identify", i);
      r = g->identifier->identify(probes[i].feature);
    }
    verifier_runs += r.verifier_runs;
    if (!same_decision(recomposed, decisions[i]) ||
        !same_decision(r.to_decision(), decisions[i]))
      result.fail("identification " + std::to_string(i) +
                  ": traced decisions differ from the untraced pass");
  }
  if (recomposed_runs != verifier_runs)
    result.fail("recomposed verifier runs differ from Identifier's");
  const double hits = static_cast<double>(g->identifier->cache().hits() - hits0);
  const double misses =
      static_cast<double>(g->identifier->cache().misses() - misses0);
  if (!options.state_dir.empty())
    tracer.write(options.state_dir + "/" + options.workload + "-spans.csv");

  LayerReport layers;
  layers.values["runtime.cpu_per_wall"] = cpu_s / wall_s;
  layers.values["ident.verifier_runs"] =
      static_cast<double>(verifier_runs) / static_cast<double>(count);
  layers.values["ident.verifier_cache.hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers.values["trace.coverage"] = tracer.coverage("request");
  layers.values["trace.overhead"] = median(traced_latency) / lat.p50 - 1.0;
  emit_layers(tracer, layers, result);
}

}  // namespace perfbench
