#include "ir/passes.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ir/exec.h"
#include "util/logging.h"

namespace seqfm {
namespace ir {
namespace {

bool IsGather(OpKind k) {
  return k == OpKind::kEmbeddingGather || k == OpKind::kEmbeddingSumGather;
}

bool IsSynthesized(OpKind k) {
  return k == OpKind::kPaddingMask || k == OpKind::kHistoryMask ||
         k == OpKind::kCrossPaddingMask || k == OpKind::kZeros;
}

/// Candidate ids live in column 1 of the static and unified arrays
/// ([UserIndex, CandidateIndex, ...]); the dynamic array is pure history.
bool BindingUsesCandidate(const IndexBinding& b) {
  if (b.source != IndexSource::kStatic && b.source != IndexSource::kUnified) {
    return false;
  }
  for (uint32_t c : b.cols) {
    if (c == 1) return true;
  }
  return false;
}

/// True iff \p big is exactly \p small repeated back-to-back, bit-for-bit
/// (the shape a candidate-invariant tensor must take across counts).
bool TilesTo(const tensor::Tensor& small, const tensor::Tensor& big) {
  const size_t s = small.size();
  const size_t b = big.size();
  if (s == 0 || b % s != 0) return false;
  const float* sv = small.data();
  const float* bv = big.data();
  const size_t rep = b / s;
  for (size_t r = 0; r < rep; ++r) {
    if (std::memcmp(bv + r * s, sv, s * sizeof(float)) != 0) return false;
  }
  return true;
}

/// Instruction-level alignment between the two traces: same op, same value
/// ids (the traces share a construction order, hence an id space), same
/// scalar attributes. traced_indices and bindings are reconciled separately.
bool InstrsAlign(const Instr& a, const Instr& b) {
  return a.kind == b.kind && a.in == b.in && a.out == b.out &&
         a.alpha == b.alpha && a.eps == b.eps && a.row == b.row &&
         a.trans_a == b.trans_a && a.trans_b == b.trans_b &&
         a.causal == b.causal;
}

bool ValuesAlign(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ValueKind::kParam:
      return a.param == b.param;
    case ValueKind::kConstant:
      return a.index == b.index;
    default:
      return true;  // locals may differ in shape across counts
  }
}

}  // namespace

FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC) {
  FactorResult res;
  const Program& p1 = trace1.program;
  const Program& pC = traceC.program;
  if (pC.count < 2) {
    res.error = "factor: need >= 2 candidates to disambiguate bindings";
    return res;
  }
  if (p1.instrs.size() != pC.instrs.size() ||
      p1.values.size() != pC.values.size()) {
    res.error = "factor: traces diverge in length (count-dependent control "
                "flow)";
    return res;
  }
  for (size_t i = 0; i < p1.values.size(); ++i) {
    if (!ValuesAlign(p1.values[i], pC.values[i])) {
      res.error = "factor: value " + std::to_string(i) + " diverges";
      return res;
    }
  }

  // Align instructions and reconcile gather bindings. A count-1 fit can be
  // ambiguous (one row cannot separate the user and candidate columns), so
  // the count-C binding wins whenever both explain the count-1 indices.
  std::vector<IndexBinding> bindings(p1.instrs.size());
  for (size_t i = 0; i < p1.instrs.size(); ++i) {
    const Instr& a = p1.instrs[i];
    const Instr& b = pC.instrs[i];
    if (!InstrsAlign(a, b)) {
      res.error = "factor: instr " + std::to_string(i) + " (" +
                  OpKindName(a.kind) + " vs " + OpKindName(b.kind) +
                  ") diverges";
      return res;
    }
    if (!IsGather(a.kind)) continue;
    if (a.binding != b.binding) {
      const size_t n = b.binding.cols.size();
      if (a.traced_indices.size() != batch1.batch_size * n ||
          !VerifyIndexBinding(b.binding, a.traced_indices.data(),
                              batch1.batch_size, n, batch1)) {
        res.error = "factor: gather binding at instr " + std::to_string(i) +
                    " is not count-stable";
        return res;
      }
    }
    bindings[i] = b.binding;
  }

  // Structural taint: a value is candidate-variant when its instruction
  // reads the candidate column (gathers) or any variant input (transitive).
  // Synthesized masks depend only on the shared history. demoted[] carries
  // empirical refutations into each re-propagation.
  const size_t nvals = p1.values.size();
  std::vector<char> variant(nvals, 0);
  std::vector<char> demoted(nvals, 0);
  auto propagate = [&]() {
    std::fill(variant.begin(), variant.end(), 0);
    for (size_t i = 0; i < pC.instrs.size(); ++i) {
      const Instr& ins = pC.instrs[i];
      bool v = demoted[ins.out] != 0;
      if (IsGather(ins.kind)) {
        v = v || BindingUsesCandidate(bindings[i]);
      } else if (!IsSynthesized(ins.kind)) {
        for (uint32_t u : ins.in) v = v || variant[u] != 0;
      }
      variant[ins.out] = v ? 1 : 0;
    }
  };
  propagate();

  // Empirical fixpoint: every structurally invariant value must have its
  // count-C tensor equal to its count-1 tensor block-tiled, bit-for-bit.
  // A refuted claim is demoted and the taint re-propagated, so numeric
  // candidate dependence the structure missed can never be hoisted.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Instr& ins : pC.instrs) {
      const uint32_t v = ins.out;
      if (variant[v]) continue;
      const autograd::NodePtr& n1 = trace1.value_nodes[v];
      const autograd::NodePtr& nC = traceC.value_nodes[v];
      SEQFM_CHECK(n1 != nullptr && nC != nullptr);
      if (!TilesTo(n1->value, nC->value)) {
        demoted[v] = 1;
        changed = true;
      }
    }
    if (changed) propagate();
  }

  if (pC.output == kNoValue || variant[pC.output] == 0) {
    res.error = "factor: score is candidate-invariant";
    return res;
  }

  // Slots: invariant locals consumed by at least one variant instruction.
  std::vector<char> is_slot(nvals, 0);
  for (const Instr& ins : pC.instrs) {
    if (!variant[ins.out]) continue;
    for (uint32_t u : ins.in) {
      if (!variant[u] && pC.values[u].kind == ValueKind::kLocal) {
        is_slot[u] = 1;
      }
    }
  }
  std::vector<uint32_t> slots;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (is_slot[v]) slots.push_back(v);
  }

  // Prologue: the invariant sub-program at count 1, writing the slots.
  res.prologue = p1;
  res.prologue.instrs.clear();
  for (size_t i = 0; i < p1.instrs.size(); ++i) {
    if (variant[p1.instrs[i].out]) continue;
    Instr ins = p1.instrs[i];
    if (IsGather(ins.kind)) ins.binding = bindings[i];
    res.prologue.instrs.push_back(std::move(ins));
  }
  res.prologue.output = kNoValue;
  res.prologue.slot_outputs = slots;
  AssignProgramUid(&res.prologue);

  // Body: the variant sub-program at count C, reading the slots. Slots whose
  // count-C consumers saw the block-tiled shape get an explicit kTileRows
  // from the count-1 slot tensor.
  res.body = pC;
  res.body.instrs.clear();
  res.body.slot_outputs.clear();
  std::vector<uint32_t> remap(nvals);
  for (uint32_t v = 0; v < nvals; ++v) remap[v] = v;
  for (size_t pos = 0; pos < slots.size(); ++pos) {
    const uint32_t s = slots[pos];
    Value& sv = res.body.values[s];
    const size_t size1 = p1.values[s].size();
    const size_t sizeC = pC.values[s].size();
    sv.kind = ValueKind::kSlot;
    sv.index = static_cast<uint32_t>(pos);
    sv.shape = p1.values[s].shape;
    if (sizeC != size1) {
      Value tiled;
      tiled.kind = ValueKind::kLocal;
      tiled.shape = pC.values[s].shape;
      const uint32_t tid = static_cast<uint32_t>(res.body.values.size());
      res.body.values.push_back(std::move(tiled));
      remap[s] = tid;
      Instr tile;
      tile.kind = OpKind::kTileRows;
      tile.in = {s};
      tile.out = tid;
      res.body.instrs.push_back(std::move(tile));
    }
  }
  for (size_t i = 0; i < pC.instrs.size(); ++i) {
    if (!variant[pC.instrs[i].out]) continue;
    Instr ins = pC.instrs[i];
    if (IsGather(ins.kind)) ins.binding = bindings[i];
    for (uint32_t& u : ins.in) u = remap[u];
    res.body.instrs.push_back(std::move(ins));
  }
  AssignProgramUid(&res.body);
  return res;
}

size_t FoldConstants(Program* program) {
  // Never fold a program output or a slot output: the executor resolves both
  // through the frame's locals, so re-kinding one to kConstant would hand its
  // consumers an empty tensor. (A constant-valued slot is possible — a
  // constant subgraph feeding a candidate-variant op is selected as a slot.)
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t folded = 0;
  std::vector<Instr> kept;
  kept.reserve(program->instrs.size());
  for (Instr& ins : program->instrs) {
    bool foldable = !pinned[ins.out] && !ins.in.empty() && !IsGather(ins.kind) &&
                    !IsSynthesized(ins.kind) && ins.kind != OpKind::kTileRows;
    for (uint32_t u : ins.in) {
      foldable = foldable &&
                 program->values[u].kind == ValueKind::kConstant;
    }
    if (!foldable) {
      kept.push_back(std::move(ins));
      continue;
    }
    std::vector<const tensor::Tensor*> in;
    in.reserve(ins.in.size());
    for (uint32_t u : ins.in) {
      in.push_back(&program->constants[program->values[u].index]);
    }
    Value& out = program->values[ins.out];
    tensor::Tensor value = tensor::Tensor::Uninitialized(out.shape);
    SEQFM_CHECK(EvalPure(ins, in, &value))
        << "unfoldable pure op " << OpKindName(ins.kind);
    out.kind = ValueKind::kConstant;
    out.index = static_cast<uint32_t>(program->constants.size());
    program->constants.push_back(std::move(value));
    ++folded;
  }
  program->instrs = std::move(kept);
  return folded;
}

size_t DeadCodeElim(Program* program) {
  std::vector<char> live(program->values.size(), 0);
  if (program->output != kNoValue) live[program->output] = 1;
  for (uint32_t s : program->slot_outputs) live[s] = 1;
  std::vector<char> keep(program->instrs.size(), 0);
  size_t removed = 0;
  for (size_t i = program->instrs.size(); i-- > 0;) {
    const Instr& ins = program->instrs[i];
    if (!live[ins.out]) {
      ++removed;
      continue;
    }
    keep[i] = 1;
    for (uint32_t u : ins.in) live[u] = 1;
  }
  if (removed > 0) {
    std::vector<Instr> kept;
    kept.reserve(program->instrs.size() - removed);
    for (size_t i = 0; i < program->instrs.size(); ++i) {
      if (keep[i]) kept.push_back(std::move(program->instrs[i]));
    }
    program->instrs = std::move(kept);
  }
  return removed;
}

size_t FuseElementwise(Program* program) {
  std::vector<uint32_t> consumers(program->values.size(), 0);
  for (const Instr& ins : program->instrs) {
    for (uint32_t u : ins.in) ++consumers[u];
  }
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t fused = 0;
  for (const Instr& ins : program->instrs) {
    switch (ins.kind) {
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
      case OpKind::kScale:
      case OpKind::kAddScalar:
      case OpKind::kReshape:
        break;
      default:
        continue;
    }
    const uint32_t src = ins.in[0];
    if (program->values[src].kind != ValueKind::kLocal) continue;
    if (consumers[src] != 1 || pinned[src]) continue;
    program->values[ins.out].alias_of = src;
    ++fused;
  }
  return fused;
}

void PlanArena(Program* program) {
  const size_t nvals = program->values.size();
  const size_t ninstr = program->instrs.size();
  constexpr size_t kAlignFloats = 16;  // 64-byte lanes
  auto align_up = [](size_t n) {
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  };
  auto root_of = [&](uint32_t v) {
    while (program->values[v].alias_of != kNoValue) {
      v = program->values[v].alias_of;
    }
    return v;
  };

  // Lifetimes per alias root: from the root's defining instruction to the
  // last instruction that reads or redefines (in place) any alias of it;
  // externally visible values live past the end of the program.
  constexpr size_t kNoDef = static_cast<size_t>(-1);
  std::vector<size_t> def(nvals, kNoDef);
  std::vector<size_t> end(nvals, 0);
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = program->instrs[i];
    const uint32_t r = root_of(ins.out);
    if (def[r] == kNoDef) def[r] = i;
    end[r] = std::max(end[r], i);
    for (uint32_t u : ins.in) {
      if (program->values[u].kind != ValueKind::kLocal) continue;
      end[root_of(u)] = std::max(end[root_of(u)], i);
    }
  }
  if (program->output != kNoValue &&
      program->values[program->output].kind == ValueKind::kLocal) {
    end[root_of(program->output)] = ninstr;
  }
  for (uint32_t s : program->slot_outputs) {
    if (program->values[s].kind == ValueKind::kLocal) {
      end[root_of(s)] = ninstr;
    }
  }

  // First-fit over a merged free list, sweeping roots in definition order.
  struct Block {
    size_t offset;
    size_t size;
  };
  std::vector<Block> free_list;
  size_t high_water = 0;
  auto release = [&](size_t offset, size_t size) {
    Block blk{offset, size};
    auto it = std::lower_bound(
        free_list.begin(), free_list.end(), blk,
        [](const Block& a, const Block& b) { return a.offset < b.offset; });
    it = free_list.insert(it, blk);
    if (it + 1 != free_list.end() && it->offset + it->size == (it + 1)->offset) {
      it->size += (it + 1)->size;
      free_list.erase(it + 1);
    }
    if (it != free_list.begin() &&
        (it - 1)->offset + (it - 1)->size == it->offset) {
      (it - 1)->size += it->size;
      free_list.erase(it);
    }
  };
  auto acquire = [&](size_t size) {
    for (auto it = free_list.begin(); it != free_list.end(); ++it) {
      if (it->size < size) continue;
      const size_t offset = it->offset;
      it->offset += size;
      it->size -= size;
      if (it->size == 0) free_list.erase(it);
      return offset;
    }
    const size_t offset = high_water;
    high_water += size;
    return offset;
  };

  std::vector<uint32_t> order;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (program->values[v].kind == ValueKind::kLocal &&
        program->values[v].alias_of == kNoValue && def[v] != kNoDef) {
      order.push_back(v);
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return def[a] < def[b];
  });

  struct LiveRoot {
    size_t end;
    size_t offset;
    size_t size;
  };
  std::vector<LiveRoot> active;
  for (uint32_t v : order) {
    for (size_t i = active.size(); i-- > 0;) {
      if (active[i].end < def[v]) {
        release(active[i].offset, active[i].size);
        active.erase(active.begin() + i);
      }
    }
    const size_t size = align_up(program->values[v].size());
    const size_t offset = acquire(size);
    program->values[v].offset = offset;
    active.push_back({end[v], offset, size});
  }

  for (uint32_t v = 0; v < nvals; ++v) {
    Value& val = program->values[v];
    if (val.kind != ValueKind::kLocal) continue;
    if (val.alias_of != kNoValue) {
      val.offset = program->values[root_of(v)].offset;
    } else if (def[v] == kNoDef) {
      val.offset = kNoOffset;  // dead local (DCE removed its def)
    }
  }
  program->frame_floats = high_water;
}

}  // namespace ir
}  // namespace seqfm
