#ifndef SEQFM_IR_PASSES_H_
#define SEQFM_IR_PASSES_H_

#include <cstddef>
#include <string>

#include "data/dataset.h"
#include "ir/trace.h"

namespace seqfm {
namespace ir {

/// \brief Optimization passes over traced programs.
///
/// The pass pipeline turns two aligned traces of one model (candidate counts
/// 1 and C) into a factored pair of programs:
///   prologue  — the candidate-invariant sub-program at count 1, executed
///               once per (user, history) and cached in the ContextCache;
///   body      — the per-candidate sub-program at count C, reading the
///               prologue's outputs through kSlot values (tiled to count C
///               where shapes demand it).
/// Each sub-program then goes through FoldConstants → DeadCodeElim →
/// FuseElementwise → PlanArena before execution.

struct FactorResult {
  Program prologue;
  Program body;
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Factors aligned traces of the same model. \p trace1 ran at candidate
/// count 1 and \p traceC at count >= 2 (two distinct candidates are what
/// disambiguate the candidate column in gather bindings); \p batch1 /
/// \p batchC are the batches they were traced against.
///
/// A value is candidate-invariant when it is so both structurally (its
/// instruction consumes no candidate column, transitively) and empirically
/// (its count-C tensor is exactly the count-1 tensor block-tiled C times,
/// bit-for-bit). Structural claims an empirical check refutes are demoted
/// and the taint re-propagated to a fixpoint, so a surprising numeric
/// dependence can never be hoisted. Fails (with .error set) when the traces
/// do not align instruction-for-instruction, when a gather binding cannot be
/// reconciled across counts, or when the final score itself is
/// candidate-invariant.
FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC);

/// Evaluates instructions whose inputs are all captured constants and
/// re-kinds their outputs as constants. Synthesized masks, gathers, and
/// no-input instructions are never folded (their values depend on the
/// request). Returns the number of instructions folded away.
size_t FoldConstants(Program* program);

/// Removes instructions whose outputs are unreachable from Program::output
/// and Program::slot_outputs. Returns the number removed.
size_t DeadCodeElim(Program* program);

/// Aliases the output of single-consumer elementwise chain links (relu,
/// sigmoid, tanh, scale, reshape) onto their input buffer so the
/// executor runs them in place (reshape becomes free). Returns the number of
/// values aliased.
size_t FuseElementwise(Program* program);

/// Assigns every live kLocal value a fixed offset in the execution frame via
/// lifetime analysis (first-fit over a merged free list, 64-byte-aligned
/// offsets) and sets Program::frame_floats to the planned high water.
/// Aliased values share their root's buffer and extend its lifetime. Must
/// run after the other passes.
void PlanArena(Program* program);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PASSES_H_
