#include "query/join.h"

#include <algorithm>
#include <utility>

#include "sig/kernels.h"
#include "util/bitvector.h"

namespace sigsetdb {

namespace {

// Adaptive direction choice: roughly how many in-memory signature checks
// cost the same as one page access.  One page is 512 signature words at
// F = 250; a check early-exits, so charge ~half a word-scan per check.
constexpr double kSigChecksPerPage = 256.0;

// One side, pulled into memory by its scan callback.
struct Materialized {
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
};

Status MaterializeSide(const JoinSideAccess& side, Materialized* out) {
  if (!side.scan) {
    return Status::InvalidArgument("join side has no scan callback");
  }
  out->oids.reserve(side.num_live);
  out->sets.reserve(side.num_live);
  return side.scan([out](Oid oid, const ElementSet& set) {
    out->oids.push_back(oid);
    out->sets.push_back(set);
    return Status::OK();
  });
}

uint32_t ClampPrefixBits(uint32_t bits, uint32_t f) {
  const uint32_t cap = f < 16 ? f : 16;
  if (bits < 1) return 1;
  return bits < cap ? bits : cap;
}

// The low `bits` bits of the signature, as the partition key.
uint32_t SigPrefix(const BitVector& sig, uint32_t bits) {
  return static_cast<uint32_t>(sig.words()[0] &
                               ((uint64_t{1} << bits) - 1));
}

// Exact containment check through the dispatched intersection kernel:
// r ⊆ s ⇔ |r ∩ s| = |r|.  `scratch` must hold at least |r| slots (the
// kernel's out capacity is min(|r|, |s|) ≤ |r| once |r| ≤ |s|).
bool VerifySubset(const ElementSet& r, const ElementSet& s,
                  std::vector<uint64_t>* scratch) {
  if (r.empty()) return true;
  if (r.size() > s.size()) return false;
  if (scratch->size() < r.size()) scratch->resize(r.size());
  return KernelIntersectU64(r.data(), r.size(), s.data(), s.size(),
                            scratch->data()) == r.size();
}

// Per-worker accumulator for the in-memory probe phases.  Workers fill
// their own instance; the caller merges in worker order (deterministic at
// any thread count — the final pair sort makes the order canonical anyway,
// but the counts must not race).
struct ProbeWorker {
  std::vector<JoinPair> pairs;
  uint64_t candidate_pairs = 0;
  uint64_t false_drop_pairs = 0;
  std::vector<uint64_t> scratch;
};

// The signature-probe direction for the R rows indexed by
// r_index[begin..end): enumerate S buckets whose prefix is a bit-superset
// of the row's, filter on the full signatures, verify with the
// intersection kernel.
void SigProbeRange(const Materialized& r_side,
                   const std::vector<BitVector>& r_sigs,
                   const std::vector<uint32_t>& r_prefixes,
                   const Materialized& s_side,
                   const std::vector<BitVector>& s_sigs,
                   const std::vector<std::vector<uint32_t>>& s_buckets,
                   uint32_t prefix_mask, const std::vector<uint32_t>& r_index,
                   size_t begin, size_t end, ProbeWorker* out) {
  for (size_t pos = begin; pos < end; ++pos) {
    const uint32_t i = r_index[pos];
    const ElementSet& r_set = r_side.sets[i];
    const Oid r_oid = r_side.oids[i];
    if (r_set.empty()) {
      // ∅ ⊆ everything: every s is a (trivially verified) pair.
      out->candidate_pairs += s_side.oids.size();
      for (const Oid s_oid : s_side.oids) {
        out->pairs.push_back({r_oid, s_oid});
      }
      continue;
    }
    const BitVector& r_sig = r_sigs[i];
    // Sub-mask enumeration of every bucket prefix ⊇ r's prefix: walk the
    // subsets of the free (zero) bits and OR them onto the prefix.
    const uint32_t base = r_prefixes[i];
    const uint32_t free_bits = prefix_mask & ~base;
    uint32_t sub = 0;
    while (true) {
      const std::vector<uint32_t>& bucket = s_buckets[base | sub];
      for (const uint32_t j : bucket) {
        if (KernelIsSubsetOf(r_sig, s_sigs[j])) {
          ++out->candidate_pairs;
          if (VerifySubset(r_set, s_side.sets[j], &out->scratch)) {
            out->pairs.push_back({r_oid, s_side.oids[j]});
          } else {
            ++out->false_drop_pairs;
          }
        }
      }
      if (sub == free_bits) break;
      sub = (sub - free_bits) & free_bits;
    }
  }
}

// Runs the signature-probe direction over `r_index`, fanning out over
// contiguous ranges when a pool is available.  Pure CPU — no I/O, no
// failure paths — so parallel and serial runs are trivially identical.
void SigProbeAll(const Materialized& r_side,
                 const std::vector<BitVector>& r_sigs,
                 const std::vector<uint32_t>& r_prefixes,
                 const Materialized& s_side,
                 const std::vector<BitVector>& s_sigs,
                 const std::vector<std::vector<uint32_t>>& s_buckets,
                 uint32_t prefix_mask, const std::vector<uint32_t>& r_index,
                 const ParallelExecutionContext* ctx, JoinResult* out) {
  const size_t workers =
      ctx != nullptr ? ctx->WorkersFor(r_index.size()) : 1;
  std::vector<ProbeWorker> states(workers);
  if (workers <= 1) {
    SigProbeRange(r_side, r_sigs, r_prefixes, s_side, s_sigs, s_buckets,
                  prefix_mask, r_index, 0, r_index.size(), &states[0]);
  } else {
    ctx->pool->ParallelFor(
        r_index.size(), workers,
        [&](size_t worker, size_t begin, size_t end) {
          SigProbeRange(r_side, r_sigs, r_prefixes, s_side, s_sigs,
                        s_buckets, prefix_mask, r_index, begin, end,
                        &states[worker]);
        });
  }
  for (ProbeWorker& state : states) {
    out->num_candidate_pairs += state.candidate_pairs;
    out->num_false_drop_pairs += state.false_drop_pairs;
    out->pairs.insert(out->pairs.end(), state.pairs.begin(),
                      state.pairs.end());
  }
}

// Builds signatures and the prefix of every row of `side`.
void BuildSignatures(const Materialized& side, const SignatureConfig& sig,
                     uint32_t prefix_bits, std::vector<BitVector>* sigs,
                     std::vector<uint32_t>* prefixes) {
  sigs->reserve(side.sets.size());
  prefixes->reserve(side.sets.size());
  for (const ElementSet& set : side.sets) {
    sigs->push_back(MakeSetSignature(set, sig));
    prefixes->push_back(SigPrefix(sigs->back(), prefix_bits));
  }
}

}  // namespace

const char* JoinStrategyName(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kAuto:
      return "auto";
    case JoinStrategy::kNestedLoop:
      return "nested-loop";
    case JoinStrategy::kSignatureHash:
      return "sig-hash";
    case JoinStrategy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

StatusOr<JoinStrategy> ParseJoinStrategy(const std::string& text) {
  if (text == "auto") return JoinStrategy::kAuto;
  if (text == "nested-loop") return JoinStrategy::kNestedLoop;
  if (text == "sig-hash") return JoinStrategy::kSignatureHash;
  if (text == "adaptive") return JoinStrategy::kAdaptive;
  return Status::InvalidArgument("unknown join strategy: " + text);
}

StatusOr<JoinResult> ExecuteSetJoin(const JoinSideAccess& r,
                                    const JoinSideAccess& s,
                                    const SignatureConfig& sig,
                                    const JoinSpec& spec,
                                    const ParallelExecutionContext* ctx,
                                    QueryTrace* trace,
                                    const std::function<IoStats()>& total_stats) {
  if (spec.strategy == JoinStrategy::kAuto) {
    return Status::InvalidArgument(
        "ExecuteSetJoin needs a concrete strategy (kAuto is resolved by the "
        "planner)");
  }
  SIGSET_RETURN_IF_ERROR(sig.Validate());

  // Appends a finished stage: wall time plus the page delta of
  // `total_stats` over the stage (tracing never issues I/O of its own).
  const auto finish_stage = [&](const char* name, const TraceTimer& timer,
                                const IoStats& before) {
    if (trace == nullptr) return;
    TraceSpan* span = trace->AddStage(name);
    span->wall_ms = timer.ElapsedMs();
    if (total_stats) *span += (total_stats() - before).counts();
  };
  const auto snap = [&]() -> IoStats {
    return total_stats ? total_stats() : IoStats{};
  };

  JoinResult out;

  // Every strategy scans R once (the outer relation drives all three).
  Materialized r_side;
  {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    SIGSET_RETURN_IF_ERROR(MaterializeSide(r, &r_side));
    finish_stage("r scan", timer, before);
  }

  if (spec.strategy == JoinStrategy::kNestedLoop) {
    if (!s.probe_superset) {
      return Status::InvalidArgument(
          "nested-loop join needs a probe_superset on the S side");
    }
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    int64_t candidates = 0;
    int64_t false_drops = 0;
    // The ∅ roster (every live s) is scanned lazily, at most once.
    std::vector<Oid> s_roster;
    bool have_roster = false;
    for (size_t i = 0; i < r_side.oids.size(); ++i) {
      const ElementSet& r_set = r_side.sets[i];
      if (r_set.empty()) {
        if (!have_roster) {
          SIGSET_RETURN_IF_ERROR(s.scan([&](Oid oid, const ElementSet&) {
            s_roster.push_back(oid);
            return Status::OK();
          }));
          have_roster = true;
        }
        out.num_candidate_pairs += s_roster.size();
        for (const Oid s_oid : s_roster) {
          out.pairs.push_back({r_side.oids[i], s_oid});
        }
        continue;
      }
      SIGSET_ASSIGN_OR_RETURN(QueryResult probe, s.probe_superset(r_set));
      ++out.num_probes;
      out.num_candidate_pairs += probe.num_candidates;
      out.num_false_drop_pairs += probe.num_false_drops;
      candidates += static_cast<int64_t>(probe.num_candidates);
      false_drops += static_cast<int64_t>(probe.num_false_drops);
      for (const Oid s_oid : probe.oids) {
        out.pairs.push_back({r_side.oids[i], s_oid});
      }
    }
    if (trace != nullptr) {
      finish_stage("probe loop", timer, before);
      TraceSpan& span = trace->mutable_stages().back();
      span.candidates = candidates;
      span.false_drops = false_drops;
    }
    std::sort(out.pairs.begin(), out.pairs.end());
    return out;
  }

  // sig-hash and adaptive: scan S and build the in-memory partitions.
  Materialized s_side;
  {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    SIGSET_RETURN_IF_ERROR(MaterializeSide(s, &s_side));
    finish_stage("s scan", timer, before);
  }

  const uint32_t prefix_bits = ClampPrefixBits(spec.prefix_bits, sig.f);
  const uint32_t prefix_mask = (uint32_t{1} << prefix_bits) - 1;
  std::vector<BitVector> r_sigs, s_sigs;
  std::vector<uint32_t> r_prefixes, s_prefixes;
  std::vector<std::vector<uint32_t>> s_buckets(size_t{1} << prefix_bits);
  {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    BuildSignatures(r_side, sig, prefix_bits, &r_sigs, &r_prefixes);
    BuildSignatures(s_side, sig, prefix_bits, &s_sigs, &s_prefixes);
    for (uint32_t j = 0; j < s_side.oids.size(); ++j) {
      s_buckets[s_prefixes[j]].push_back(j);
    }
    finish_stage("partition", timer, before);
  }

  if (spec.strategy == JoinStrategy::kSignatureHash) {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    std::vector<uint32_t> all(r_side.oids.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    SigProbeAll(r_side, r_sigs, r_prefixes, s_side, s_sigs, s_buckets,
                prefix_mask, all, ctx, &out);
    if (trace != nullptr) {
      finish_stage("probe+verify", timer, before);
      TraceSpan& span = trace->mutable_stages().back();
      span.candidates = static_cast<int64_t>(out.num_candidate_pairs);
      span.false_drops = static_cast<int64_t>(out.num_false_drop_pairs);
    }
    std::sort(out.pairs.begin(), out.pairs.end());
    return out;
  }

  // Adaptive: group R by prefix, price each partition's two directions.
  // The signature direction costs ~compatible-S checks per row; the index
  // direction costs ~probe_cost_pages per row.  Partitions whose rows face
  // more checks than the equivalent of one probe switch to the facility.
  const double threshold =
      spec.adaptive_probe_threshold >= 0
          ? spec.adaptive_probe_threshold
          : kSigChecksPerPage * (s.probe_cost_pages > 1.0
                                     ? s.probe_cost_pages
                                     : 1.0);
  std::vector<std::vector<uint32_t>> r_buckets(size_t{1} << prefix_bits);
  for (uint32_t i = 0; i < r_side.oids.size(); ++i) {
    r_buckets[r_prefixes[i]].push_back(i);
  }
  std::vector<uint32_t> sig_rows;    // rows taking the signature direction
  std::vector<uint32_t> probe_rows;  // rows taking the facility direction
  for (uint32_t base = 0; base <= prefix_mask; ++base) {
    const std::vector<uint32_t>& bucket = r_buckets[base];
    if (bucket.empty()) continue;
    // Compatible-S cardinality of this partition (one sub-mask walk).
    uint64_t s_compat = 0;
    const uint32_t free_bits = prefix_mask & ~base;
    uint32_t sub = 0;
    while (true) {
      s_compat += s_buckets[base | sub].size();
      if (sub == free_bits) break;
      sub = (sub - free_bits) & free_bits;
    }
    const bool use_probe =
        s.probe_superset && static_cast<double>(s_compat) > threshold;
    (use_probe ? probe_rows : sig_rows)
        .insert((use_probe ? probe_rows : sig_rows).end(), bucket.begin(),
                bucket.end());
  }

  {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    SigProbeAll(r_side, r_sigs, r_prefixes, s_side, s_sigs, s_buckets,
                prefix_mask, sig_rows, ctx, &out);
    if (trace != nullptr) {
      finish_stage("probe+verify", timer, before);
      TraceSpan& span = trace->mutable_stages().back();
      span.candidates = static_cast<int64_t>(out.num_candidate_pairs);
      span.false_drops = static_cast<int64_t>(out.num_false_drop_pairs);
    }
  }
  if (!probe_rows.empty()) {
    TraceTimer timer(trace != nullptr);
    const IoStats before = snap();
    int64_t candidates = 0;
    int64_t false_drops = 0;
    for (const uint32_t i : probe_rows) {
      const ElementSet& r_set = r_side.sets[i];
      if (r_set.empty()) {
        // S is already materialized here — no facility call for ∅.
        out.num_candidate_pairs += s_side.oids.size();
        for (const Oid s_oid : s_side.oids) {
          out.pairs.push_back({r_side.oids[i], s_oid});
        }
        continue;
      }
      SIGSET_ASSIGN_OR_RETURN(QueryResult probe, s.probe_superset(r_set));
      ++out.num_probes;
      out.num_candidate_pairs += probe.num_candidates;
      out.num_false_drop_pairs += probe.num_false_drops;
      candidates += static_cast<int64_t>(probe.num_candidates);
      false_drops += static_cast<int64_t>(probe.num_false_drops);
      for (const Oid s_oid : probe.oids) {
        out.pairs.push_back({r_side.oids[i], s_oid});
      }
    }
    if (trace != nullptr) {
      finish_stage("probe loop", timer, before);
      TraceSpan& span = trace->mutable_stages().back();
      span.candidates = candidates;
      span.false_drops = false_drops;
    }
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  return out;
}

}  // namespace sigsetdb
