#ifndef KBT_KERNELS_KERNELS_H_
#define KBT_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernel_kind.h"

/// kbt::kernels — cache-blocked EM inner loops, in portable C++.
///
/// The 3-layer EM over the extraction cube (Dong et al., VLDB 2015, Sec. 4)
/// spends its time in four loop shapes: staging per-slot vote streams
/// (E step / Stage I), grouping votes per item, and weighted tallies over
/// the per-source / per-extractor CSR index lists (M steps / Stage IV).
/// The tallies and staging sweeps below are one program, run by both
/// kernel kinds; the kinds differ only in how the model layers use them
/// (see kernel_kind.h).
///
/// DETERMINISTIC REDUCTION CONTRACT. Every tally accumulates into
/// kTallyLanes independent accumulators, element k landing in lane
/// k % kTallyLanes, and the lanes combine as (l0 + l1) + (l2 + l3). The
/// lane count and combine order are part of the contract, NOT an
/// implementation detail: they fix the summation tree, so a tally has the
/// same bits on any thread count and any compiler that honours IEEE
/// double arithmetic. Changing kTallyLanes or the combine order is a
/// semantic change to every score the system serves.
///
/// Staging kernels are elementwise (no reduction). None of the kernels may
/// be compiled with FP contraction: the build sets -ffp-contract=off on
/// this module and on the model layers, so a fused multiply-add can never
/// round a staged product differently from the reference's inline one.
namespace kbt::kernels {

/// Lanes of the deterministic blocked tally. Part of the numeric contract.
inline constexpr size_t kTallyLanes = 4;

/// Cache-blocking unit for staged sweeps: slots/edges are staged and
/// consumed in blocks of at most this many elements so the staged stream
/// stays in L1/L2. Purely a performance knob — block boundaries never
/// affect results (staging is elementwise).
inline constexpr size_t kStageBlock = 4096;

/// A weighted tally: num = sum w*p, den = sum w (the shared shape of the
/// paper's M steps, Eqs. 4/27/28/32).
struct Tally {
  double num = 0.0;
  double den = 0.0;
};

// ---------------------------------------------------------------------------
// Blocked deterministic tallies over CSR index lists
// ---------------------------------------------------------------------------

/// num = sum_k w[idx[k]] * p[idx[k]], den = sum_k w[idx[k]] over the n-entry
/// index list, in lane order. The per-source M-step tally: idx is the
/// source's slot list, w the claim/correctness weights, p the value
/// posteriors. Over a 0/1 weight stream it is the MAP tally of Eq. 27
/// (0 * p and 1 * p are exact, so a masked slot adds +0.0 to its lane).
Tally TallyIndexed(const uint32_t* idx, size_t n, const double* w,
                   const double* p);

/// Extractor-quality tally (Eqs. 32/33): over the group's edge list,
/// num = sum_k conf[e_k] * c[edge_slot[e_k]], den = sum_k conf[e_k], with
/// conf widened float -> double before the multiply (exact).
Tally TallyEdges(const uint32_t* edges, size_t n, const float* conf,
                 const uint32_t* edge_slot, const double* c);

// ---------------------------------------------------------------------------
// Elementwise staging sweeps (contiguous [begin, end) ranges)
// ---------------------------------------------------------------------------

/// out[i] = (mask[i] * weight[i]) * table[index[i]] for i in [begin, end).
/// The E-step vote staging: mask is the 0/1 coverage stream (as doubles),
/// weight the per-slot claim/correctness stream, table the per-source vote
/// memo. out is indexed relative to begin (out[0] corresponds to element
/// `begin`).
void StageVotesMasked(const double* mask, const double* weight,
                      const uint32_t* index, const double* table,
                      size_t begin, size_t end, double* out);

/// out[i] = (mask[i] * weight[i]) * (table[index[i]] - sub[i]). The POPACCU
/// vote: table holds per-source log-odds, sub the per-slot log-popularity
/// memo.
void StageVotesMaskedSub(const double* mask, const double* weight,
                         const uint32_t* index, const double* table,
                         const double* sub, size_t begin, size_t end,
                         double* out);

/// out[e] = double(conf[e]) * net[group[e]] for e in [begin, end): the
/// Stage I per-edge extraction-correctness term, net[g] = Pre_g - w*Abs_g.
void StageEdgeTerms(const float* conf, const uint32_t* group,
                    const double* net, size_t begin, size_t end, double* out);

// ---------------------------------------------------------------------------
// Shared per-item E-step finisher
// ---------------------------------------------------------------------------

/// Reusable per-worker scratch for the E-step item pass. One instance per
/// parallel chunk; buffers grow to the largest item seen and are reused for
/// the rest of the chunk.
struct EmScratch {
  std::vector<uint32_t> values;
  std::vector<double> value_votes;
  std::vector<double> log_terms;
  /// Staged per-slot votes for the current block (staged path) or the
  /// current item (per-slot path).
  std::vector<double> votes;
  /// Staged per-edge Stage I terms for the current block.
  std::vector<double> edge_terms;
};

/// The scalar reference's per-item finisher. Groups one item's votes by
/// distinct value, normalizes through LogSumExp over the observed values
/// plus the unobserved-value mass (Eqs. 2/21), and writes the slot
/// posteriors, the covered flags and the item's unobserved-value
/// probability. It rediscovers the grouping on every call and re-searches
/// the value list and evaluates one exp per slot on write-back: the naive
/// program the oracle is defined by.
///
/// `votes[s - votes_offset]` is the vote of slot s; `covered_mask[s]` is
/// the per-slot coverage contribution (the item is covered when any of its
/// slots contributes). `num_false` is the item's effective n. Returns the
/// item's max |delta p| against the previous posteriors.
double ItemValuePass(uint32_t slot_begin, uint32_t slot_end,
                     const double* votes, size_t votes_offset,
                     const uint8_t* covered_mask, const uint32_t* slot_values,
                     int num_false, double* slot_value_prob,
                     uint8_t* slot_covered, double* item_unobserved,
                     EmScratch* scratch);

/// ItemValuePass with the value grouping precompiled: `slot_vi[s]` is slot
/// s's index among its item's `num_values` distinct values (a pure function
/// of the static slot_values layout, so it is hoisted out of the iteration
/// loop and computed once per Run). The vote accumulation visits slots in
/// the same ascending order as the scanning version and the normalizer is
/// the same; the write-back computes exp(value_votes[vi] - log_z) once per
/// DISTINCT value and gathers per slot — the same expression on the same
/// inputs — so the result is bit-for-bit identical to ItemValuePass
/// (asserted by the parity suite). The staged kind's finisher.
double ItemValuePassIndexed(uint32_t slot_begin, uint32_t slot_end,
                            const double* votes, size_t votes_offset,
                            const uint8_t* covered_mask,
                            const uint32_t* slot_vi, uint32_t num_values,
                            int num_false, double* slot_value_prob,
                            uint8_t* slot_covered, double* item_unobserved,
                            EmScratch* scratch);

/// Fills `slot_vi[s]` (absolute slot indexing) for every slot of item range
/// [slot_begin, slot_end) and returns the number of distinct values, using
/// the exact first-occurrence ordering of the ItemValuePass grouping scan.
/// `scratch->values` is the search buffer. One call per item at staging
/// setup replaces the per-iteration rediscovery.
uint32_t BuildValueIndex(uint32_t slot_begin, uint32_t slot_end,
                         const uint32_t* slot_values, uint32_t* slot_vi,
                         EmScratch* scratch);

}  // namespace kbt::kernels

#endif  // KBT_KERNELS_KERNELS_H_
