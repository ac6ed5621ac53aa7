#include "ir/verify.h"

#include <algorithm>
#include <string>
#include <vector>

namespace seqfm {
namespace ir {
namespace {

constexpr size_t kNoDef = static_cast<size_t>(-1);

std::string V(uint32_t id) { return "%" + std::to_string(id); }

/// Error prefix pinning the failure to one instruction: "instr #3 (matmul)".
std::string At(size_t i, const Instr& ins) {
  return "instr #" + std::to_string(i) + " (" + OpKindName(ins.kind) + "): ";
}

size_t Rank(const Value& v) { return v.shape.size(); }
size_t Dim(const Value& v, size_t d) { return v.shape[d]; }

/// Ops that compute out[i] from in[0][i] alone, so writing the output into
/// the input's buffer is sound. Must stay in sync with the switch in
/// passes::FuseElementwise — the verifier re-derives in-place legality
/// instead of trusting the pass that introduced the alias.
bool IsPointwiseInPlace(OpKind k) {
  switch (k) {
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kScale:
    case OpKind::kReshape:
      return true;
    default:
      return false;
  }
}

bool IsGather(OpKind k) {
  return k == OpKind::kEmbeddingGather || k == OpKind::kEmbeddingSumGather;
}

/// Width of the synthesized index row a binding source resolves to — the
/// bound the executor indexes src[b * width + cols[j]] against.
size_t SourceWidth(const Program& p, IndexSource s) {
  switch (s) {
    case IndexSource::kStatic: return p.n_static;
    case IndexSource::kDynamic: return p.n_seq;
    case IndexSource::kUnified: return p.n_unified;
    case IndexSource::kNone: break;
  }
  return 0;
}

Status CheckBinding(const Program& p, size_t i, const Instr& ins) {
  const IndexBinding& b = ins.binding;
  if (b.source == IndexSource::kNone) {
    return Status::Internal(At(i, ins) + "gather has no index binding");
  }
  if (b.cols.size() != b.deltas.size()) {
    return Status::Internal(At(i, ins) + "binding cols/deltas length mismatch (" +
                            std::to_string(b.cols.size()) + " vs " +
                            std::to_string(b.deltas.size()) + ")");
  }
  const size_t width = SourceWidth(p, b.source);
  if (width == 0) {
    return Status::Internal(At(i, ins) + "binding source has zero width");
  }
  for (size_t j = 0; j < b.cols.size(); ++j) {
    if (b.cols[j] >= width) {
      return Status::Internal(
          At(i, ins) + "binding column " + std::to_string(b.cols[j]) +
          " (position " + std::to_string(j) + ") exceeds source width " +
          std::to_string(width));
    }
  }
  return Status::OK();
}

/// Per-op agreement with the executor's shape contracts. Mirrors what
/// EvalPure / RunProgram index by: every dim() read there has a matching
/// relation here, so a malformed program fails verification instead of
/// reading out of bounds at serving time.
Status CheckInstrShapes(const Program& p, size_t i, const Instr& ins) {
  const Value& out = p.values[ins.out];
  auto err = [&](const std::string& msg) {
    return Status::Internal(At(i, ins) + msg);
  };
  auto in_val = [&](size_t j) -> const Value& { return p.values[ins.in[j]]; };
  auto want_arity = [&](size_t n) {
    return ins.in.size() == n
               ? Status::OK()
               : err("expects " + std::to_string(n) + " inputs, has " +
                     std::to_string(ins.in.size()));
  };
  auto same_size = [&](size_t j) {
    return in_val(j).size() == out.size()
               ? Status::OK()
               : err("shape mismatch: in[" + std::to_string(j) + "] " +
                     V(ins.in[j]) + " has " +
                     std::to_string(in_val(j).size()) + " elements, out " +
                     V(ins.out) + " has " + std::to_string(out.size()));
  };
  auto want_rank = [&](size_t j, size_t r) {
    return Rank(in_val(j)) == r
               ? Status::OK()
               : err("shape mismatch: in[" + std::to_string(j) + "] " +
                     V(ins.in[j]) + " must be rank-" + std::to_string(r) +
                     ", is rank-" + std::to_string(Rank(in_val(j))));
  };

  switch (ins.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(same_size(0));
      SEQFM_RETURN_NOT_OK(same_size(1));
      return Status::OK();
    case OpKind::kScale:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kReshape:
      SEQFM_RETURN_NOT_OK(want_arity(1));
      return same_size(0);
    case OpKind::kAddBias: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(same_size(0));
      if (out.shape.empty() || in_val(1).size() != out.shape.back()) {
        return err("shape mismatch: bias " + V(ins.in[1]) + " has " +
                   std::to_string(in_val(1).size()) +
                   " elements, last dim of out is " +
                   std::to_string(out.shape.empty() ? 0 : out.shape.back()));
      }
      return Status::OK();
    }
    case OpKind::kAddBroadcastBatch: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      SEQFM_RETURN_NOT_OK(same_size(0));
      const Value& x = in_val(0);
      if (in_val(1).size() != Dim(x, 1) * Dim(x, 2)) {
        return err("shape mismatch: broadcast operand " + V(ins.in[1]) +
                   " does not cover one batch block");
      }
      return Status::OK();
    }
    case OpKind::kMatMul: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 2));
      SEQFM_RETURN_NOT_OK(want_rank(1, 2));
      const Value& a = in_val(0);
      const Value& b = in_val(1);
      if (Dim(a, 1) != Dim(b, 0)) {
        return err("shape mismatch: inner dims " + std::to_string(Dim(a, 1)) +
                   " vs " + std::to_string(Dim(b, 0)));
      }
      if (out.size() != Dim(a, 0) * Dim(b, 1)) {
        return err("shape mismatch: out is not [m, n]");
      }
      return Status::OK();
    }
    case OpKind::kBmmShared: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      SEQFM_RETURN_NOT_OK(want_rank(1, 2));
      const Value& a = in_val(0);
      const Value& w = in_val(1);
      if (Dim(a, 2) != Dim(w, 0)) {
        return err("shape mismatch: inner dims " + std::to_string(Dim(a, 2)) +
                   " vs " + std::to_string(Dim(w, 0)));
      }
      if (out.size() != Dim(a, 0) * Dim(a, 1) * Dim(w, 1)) {
        return err("shape mismatch: out is not [batch, m, n]");
      }
      return Status::OK();
    }
    case OpKind::kBmm: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      SEQFM_RETURN_NOT_OK(want_rank(1, 3));
      const Value& a = in_val(0);
      const Value& b = in_val(1);
      if (Dim(a, 0) != Dim(b, 0)) return err("shape mismatch: batch dims");
      const size_t m = ins.trans_a ? Dim(a, 2) : Dim(a, 1);
      const size_t ka = ins.trans_a ? Dim(a, 1) : Dim(a, 2);
      const size_t kb = ins.trans_b ? Dim(b, 2) : Dim(b, 1);
      const size_t n = ins.trans_b ? Dim(b, 1) : Dim(b, 2);
      if (ka != kb) {
        return err("shape mismatch: inner dims " + std::to_string(ka) +
                   " vs " + std::to_string(kb));
      }
      if (out.size() != Dim(a, 0) * m * n) {
        return err("shape mismatch: out is not [batch, m, n]");
      }
      return Status::OK();
    }
    case OpKind::kBmmLeftShared: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 2));
      SEQFM_RETURN_NOT_OK(want_rank(1, 3));
      const Value& w = in_val(0);
      const Value& x = in_val(1);
      if (Dim(w, 1) != Dim(x, 1)) {
        return err("shape mismatch: inner dims " + std::to_string(Dim(w, 1)) +
                   " vs " + std::to_string(Dim(x, 1)));
      }
      if (out.size() != Dim(x, 0) * Dim(w, 0) * Dim(x, 2)) {
        return err("shape mismatch: out is not [batch, h2, d]");
      }
      return Status::OK();
    }
    case OpKind::kRowDot: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 2));
      if (in_val(0).size() != in_val(1).size()) {
        return err("shape mismatch: operand sizes differ");
      }
      if (out.size() != Dim(in_val(0), 0)) {
        return err("shape mismatch: out is not one value per row");
      }
      return Status::OK();
    }
    case OpKind::kMaskedSoftmax: {
      if (ins.in.size() != 1 && ins.in.size() != 2) {
        return err("expects 1 or 2 inputs, has " +
                   std::to_string(ins.in.size()));
      }
      SEQFM_RETURN_NOT_OK(same_size(0));
      if (ins.in.size() == 2) {
        const size_t msize = in_val(1).size();
        if (msize == 0 || out.size() % msize != 0) {
          return err("shape mismatch: mask " + V(ins.in[1]) +
                     " does not broadcast over the logits");
        }
      }
      return Status::OK();
    }
    case OpKind::kLayerNorm: {
      SEQFM_RETURN_NOT_OK(want_arity(3));
      SEQFM_RETURN_NOT_OK(same_size(0));
      const size_t d = out.shape.empty() ? 0 : out.shape.back();
      if (d == 0 || in_val(1).size() != d || in_val(2).size() != d) {
        return err("shape mismatch: gamma/beta must match the last dim");
      }
      return Status::OK();
    }
    case OpKind::kConcatLast: {
      if (ins.in.empty()) return err("expects >= 1 input");
      if (Rank(out) != 2) return err("shape mismatch: out must be rank-2");
      size_t total = 0;
      for (size_t j = 0; j < ins.in.size(); ++j) {
        SEQFM_RETURN_NOT_OK(want_rank(j, 2));
        if (Dim(in_val(j), 0) != Dim(out, 0)) {
          return err("shape mismatch: batch dims differ at in[" +
                     std::to_string(j) + "]");
        }
        total += Dim(in_val(j), 1);
      }
      if (total != Dim(out, 1)) {
        return err("shape mismatch: concatenated width " +
                   std::to_string(total) + " vs out width " +
                   std::to_string(Dim(out, 1)));
      }
      return Status::OK();
    }
    case OpKind::kConcatAxis1: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      SEQFM_RETURN_NOT_OK(want_rank(1, 3));
      const Value& a = in_val(0);
      const Value& b = in_val(1);
      if (Dim(a, 0) != Dim(b, 0) || Dim(a, 2) != Dim(b, 2)) {
        return err("shape mismatch: operands disagree outside axis 1");
      }
      if (out.size() != Dim(a, 0) * (Dim(a, 1) + Dim(b, 1)) * Dim(a, 2)) {
        return err("shape mismatch: out is not the axis-1 concatenation");
      }
      return Status::OK();
    }
    case OpKind::kReduceAxis1: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      const Value& x = in_val(0);
      if (out.size() != Dim(x, 0) * Dim(x, 2)) {
        return err("shape mismatch: out is not [batch, cols]");
      }
      return Status::OK();
    }
    case OpKind::kSliceRow: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      const Value& x = in_val(0);
      if (ins.row >= Dim(x, 1)) {
        return err("row " + std::to_string(ins.row) + " out of range for " +
                   std::to_string(Dim(x, 1)) + " rows");
      }
      if (out.size() != Dim(x, 0) * Dim(x, 2)) {
        return err("shape mismatch: out is not [batch, d]");
      }
      return Status::OK();
    }
    case OpKind::kSumLast: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      const Value& x = in_val(0);
      const size_t d = x.shape.empty() ? 0 : x.shape.back();
      if (d == 0 || out.size() != x.size() / d) {
        return err("shape mismatch: out is not one value per row");
      }
      return Status::OK();
    }
    case OpKind::kExpandRows: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      if (Rank(out) != 3) return err("shape mismatch: out must be rank-3");
      if (in_val(0).size() != Dim(out, 0) * Dim(out, 2)) {
        return err("shape mismatch: input does not cover [batch, d]");
      }
      return Status::OK();
    }
    case OpKind::kPairwiseUpper: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      const Value& x = in_val(0);
      const size_t n = Dim(x, 1);
      if (out.size() != Dim(x, 0) * (n * (n - 1) / 2) * Dim(x, 2)) {
        return err("shape mismatch: out is not the upper pair triangle");
      }
      return Status::OK();
    }
    case OpKind::kPairwiseCross: {
      SEQFM_RETURN_NOT_OK(want_arity(2));
      SEQFM_RETURN_NOT_OK(want_rank(0, 3));
      SEQFM_RETURN_NOT_OK(want_rank(1, 3));
      const Value& a = in_val(0);
      const Value& b = in_val(1);
      if (Dim(a, 0) != Dim(b, 0) || Dim(a, 2) != Dim(b, 2)) {
        return err("shape mismatch: operands disagree in batch or depth");
      }
      if (out.size() != Dim(a, 0) * Dim(a, 1) * Dim(b, 1) * Dim(a, 2)) {
        return err("shape mismatch: out is not the full cross product");
      }
      return Status::OK();
    }
    case OpKind::kEmbeddingGather: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      SEQFM_RETURN_NOT_OK(want_rank(0, 2));
      if (Rank(out) != 3) return err("shape mismatch: out must be rank-3");
      const Value& table = in_val(0);
      if (Dim(out, 2) != Dim(table, 1)) {
        return err("shape mismatch: out depth " + std::to_string(Dim(out, 2)) +
                   " vs table depth " + std::to_string(Dim(table, 1)));
      }
      if (Dim(out, 0) != p.count) {
        return err("batch " + std::to_string(Dim(out, 0)) +
                   " diverges from program count " + std::to_string(p.count));
      }
      SEQFM_RETURN_NOT_OK(CheckBinding(p, i, ins));
      if (ins.binding.cols.size() != Dim(out, 1)) {
        return err("binding covers " +
                   std::to_string(ins.binding.cols.size()) +
                   " columns but out has " + std::to_string(Dim(out, 1)) +
                   " rows per sample");
      }
      return Status::OK();
    }
    case OpKind::kEmbeddingSumGather: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      if (Rank(out) == 0 || Dim(out, 0) != p.count ||
          out.size() != Dim(out, 0)) {
        return err("shape mismatch: out is not one value per sample of the "
                   "program count");
      }
      return CheckBinding(p, i, ins);
    }
    case OpKind::kPaddingMask: {
      SEQFM_RETURN_NOT_OK(want_arity(0));
      const size_t block = p.n_seq * p.n_seq;
      if (block == 0 || out.size() % block != 0) {
        return err("shape mismatch: out is not whole [n, n] blocks");
      }
      return Status::OK();
    }
    case OpKind::kHistoryMask: {
      SEQFM_RETURN_NOT_OK(want_arity(0));
      if (p.n_seq == 0 || out.size() % p.n_seq != 0) {
        return err("shape mismatch: out is not whole history rows");
      }
      return Status::OK();
    }
    case OpKind::kCrossPaddingMask: {
      SEQFM_RETURN_NOT_OK(want_arity(0));
      const size_t side = ins.row + p.n_seq;
      if (side == 0 || out.size() % (side * side) != 0) {
        return err("shape mismatch: out is not whole cross-mask blocks");
      }
      return Status::OK();
    }
    case OpKind::kZeros:
      return want_arity(0);
    case OpKind::kTileRows: {
      SEQFM_RETURN_NOT_OK(want_arity(1));
      const size_t s = in_val(0).size();
      if (s == 0 || out.size() % s != 0) {
        return err("shape mismatch: out is not a whole-number tiling of " +
                   V(ins.in[0]));
      }
      return Status::OK();
    }
  }
  return Status::Internal(At(i, ins) + "unknown op kind");
}

}  // namespace

Status Verify(const Program& p, const VerifyOptions& opt) {
  const size_t nvals = p.values.size();
  const size_t ninstr = p.instrs.size();

  // --- Value-table statics: every non-local value must be resolvable. ---
  for (uint32_t id = 0; id < nvals; ++id) {
    const Value& v = p.values[id];
    switch (v.kind) {
      case ValueKind::kLocal:
        break;
      case ValueKind::kParam:
        if (v.param == nullptr) {
          return Status::Internal("value " + V(id) + ": null param node");
        }
        break;
      case ValueKind::kConstant:
        if (v.index >= p.constants.size()) {
          return Status::Internal(
              "value " + V(id) + ": constant index " +
              std::to_string(v.index) + " out of range (have " +
              std::to_string(p.constants.size()) + " constants)");
        }
        if (p.constants[v.index].size() != v.size()) {
          return Status::Internal(
              "value " + V(id) + ": constant size " +
              std::to_string(p.constants[v.index].size()) +
              " disagrees with declared shape (" + std::to_string(v.size()) +
              " elements)");
        }
        break;
      case ValueKind::kSlot:
        if (!opt.allow_slots) {
          return Status::Internal("value " + V(id) +
                                  ": kSlot value in a program that takes no "
                                  "slots");
        }
        if (v.index >= opt.num_slots) {
          return Status::Internal(
              "value " + V(id) + ": slot index " + std::to_string(v.index) +
              " out of range (prologue writes " +
              std::to_string(opt.num_slots) + " slots)");
        }
        break;
    }
    if (v.alias_of != kNoValue && v.kind != ValueKind::kLocal) {
      return Status::Internal("value " + V(id) +
                              ": non-local value carries a fusion alias");
    }
  }

  // --- Instruction table: id ranges, SSA single definition. ---
  std::vector<size_t> def(nvals, kNoDef);
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = p.instrs[i];
    if (ins.out >= nvals) {
      return Status::Internal(At(i, ins) + "out of range output value id " +
                              std::to_string(ins.out));
    }
    for (uint32_t u : ins.in) {
      if (u >= nvals) {
        return Status::Internal(At(i, ins) + "out of range input value id " +
                                std::to_string(u));
      }
    }
    if (p.values[ins.out].kind != ValueKind::kLocal) {
      return Status::Internal(At(i, ins) + "writes non-local value " +
                              V(ins.out));
    }
    if (def[ins.out] != kNoDef) {
      return Status::Internal(At(i, ins) + "value " + V(ins.out) +
                              " defined twice (SSA violation; first at instr "
                              "#" + std::to_string(def[ins.out]) + ")");
    }
    def[ins.out] = i;
  }

  // --- Fusion aliases: acyclic chains onto a defined local root, written
  // by a pointwise op reading the alias target as in[0]. ---
  std::vector<uint32_t> root(nvals);
  for (uint32_t id = 0; id < nvals; ++id) {
    uint32_t r = id;
    size_t steps = 0;
    while (p.values[r].alias_of != kNoValue) {
      const uint32_t next = p.values[r].alias_of;
      if (next >= nvals) {
        return Status::Internal("value " + V(id) + ": alias target " +
                                std::to_string(next) + " out of range");
      }
      r = next;
      if (++steps > nvals) {
        return Status::Internal("value " + V(id) + ": alias chain cycle");
      }
    }
    root[id] = r;
  }
  for (uint32_t id = 0; id < nvals; ++id) {
    const Value& v = p.values[id];
    if (v.alias_of == kNoValue) continue;
    const Value& target = p.values[v.alias_of];
    if (target.kind != ValueKind::kLocal) {
      return Status::Internal("value " + V(id) + ": aliases non-local value " +
                              V(v.alias_of));
    }
    if (v.size() != target.size()) {
      return Status::Internal("value " + V(id) + ": aliases " + V(v.alias_of) +
                              " of different size (" +
                              std::to_string(v.size()) + " vs " +
                              std::to_string(target.size()) + " elements)");
    }
    if (def[id] == kNoDef) {
      return Status::Internal("value " + V(id) +
                              ": aliased value has no defining instruction");
    }
    const Instr& d = p.instrs[def[id]];
    if (!IsPointwiseInPlace(d.kind) || d.in.empty() ||
        d.in[0] != v.alias_of) {
      return Status::Internal(
          At(def[id], d) + "illegal fusion alias: " + V(id) +
          " must be defined by a pointwise op reading " + V(v.alias_of) +
          " as in[0]");
    }
  }

  // --- Reads: def-before-use, slot gating, per-op shape contracts, and
  // no read of a buffer after an in-place redefinition clobbered it. For
  // each local, the next in-place overwrite of its alias root bounds the
  // last instruction allowed to read it (program outputs read at ninstr). ---
  std::vector<size_t> overwritten_at(nvals, kNoDef);  // next def on my root
  std::vector<uint32_t> overwritten_by(nvals, kNoValue);
  for (uint32_t id = 0; id < nvals; ++id) {
    if (p.values[id].kind != ValueKind::kLocal || def[id] == kNoDef) continue;
    for (uint32_t other = 0; other < nvals; ++other) {
      if (other == id || root[other] != root[id]) continue;
      if (def[other] == kNoDef || def[other] <= def[id]) continue;
      if (def[other] < overwritten_at[id]) {
        overwritten_at[id] = def[other];
        overwritten_by[id] = other;
      }
    }
  }
  auto check_read = [&](uint32_t u, size_t at,
                        const std::string& where) -> Status {
    const Value& v = p.values[u];
    if (v.kind == ValueKind::kSlot && !opt.allow_slots) {
      return Status::Internal(where + "reads slot value " + V(u) +
                              " but the program takes no slots");
    }
    if (v.kind != ValueKind::kLocal) return Status::OK();
    if (def[u] == kNoDef) {
      return Status::Internal(where + "reads undefined value " + V(u));
    }
    if (def[u] >= at) {
      return Status::Internal(where + "reads value " + V(u) +
                              " before its definition at instr #" +
                              std::to_string(def[u]));
    }
    // A read at the overwriting instruction itself is the legal in-place
    // input; anything later sees the new value's bits.
    if (overwritten_at[u] != kNoDef && at > overwritten_at[u]) {
      return Status::Internal(
          where + "reads value " + V(u) +
          " after its buffer was overwritten in place by " +
          V(overwritten_by[u]) + " at instr #" +
          std::to_string(overwritten_at[u]));
    }
    return Status::OK();
  };
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = p.instrs[i];
    for (uint32_t u : ins.in) {
      SEQFM_RETURN_NOT_OK(check_read(u, i, At(i, ins)));
    }
    if (!IsGather(ins.kind) && ins.binding.source != IndexSource::kNone) {
      return Status::Internal(At(i, ins) +
                              "non-gather op carries an index binding");
    }
    SEQFM_RETURN_NOT_OK(CheckInstrShapes(p, i, ins));
  }

  // --- Externally visible results exist and survive to the end. ---
  if (p.output != kNoValue) {
    if (p.output >= nvals) {
      return Status::Internal("program output id " +
                              std::to_string(p.output) + " out of range");
    }
    SEQFM_RETURN_NOT_OK(check_read(p.output, ninstr, "program output: "));
    if (p.values[p.output].kind != ValueKind::kLocal) {
      return Status::Internal("program output " + V(p.output) +
                              " is not a defined local");
    }
  }
  for (size_t s = 0; s < p.slot_outputs.size(); ++s) {
    const uint32_t id = p.slot_outputs[s];
    const std::string where =
        "slot output " + std::to_string(s) + ": ";
    if (id >= nvals) {
      return Status::Internal(where + "value id " + std::to_string(id) +
                              " out of range");
    }
    if (p.values[id].kind != ValueKind::kLocal || def[id] == kNoDef) {
      return Status::Internal(where + "dangling slot: value " + V(id) +
                              " is not a defined local");
    }
    SEQFM_RETURN_NOT_OK(check_read(id, ninstr, where));
  }

  if (!opt.check_arena) return Status::OK();

  // --- Arena plan: recompute lifetimes exactly as PlanArena does (per
  // alias root, definition to last read, outputs live past the end) and
  // prove every planned range is aligned, in bounds, and disjoint from
  // every simultaneously-live root. ---
  constexpr size_t kAlignFloats = 16;  // 64-byte lanes, as planned
  std::vector<size_t> rdef(nvals, kNoDef);
  std::vector<size_t> rend(nvals, 0);
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = p.instrs[i];
    const uint32_t r = root[ins.out];
    if (rdef[r] == kNoDef) rdef[r] = i;
    rend[r] = std::max(rend[r], i);
    for (uint32_t u : ins.in) {
      if (p.values[u].kind != ValueKind::kLocal) continue;
      rend[root[u]] = std::max(rend[root[u]], i);
    }
  }
  if (p.output != kNoValue &&
      p.values[p.output].kind == ValueKind::kLocal) {
    rend[root[p.output]] = ninstr;
  }
  for (uint32_t s : p.slot_outputs) {
    if (p.values[s].kind == ValueKind::kLocal) rend[root[s]] = ninstr;
  }

  std::vector<uint32_t> live_roots;
  for (uint32_t id = 0; id < nvals; ++id) {
    const Value& v = p.values[id];
    if (v.kind != ValueKind::kLocal) continue;
    if (v.alias_of != kNoValue) {
      if (v.offset != p.values[root[id]].offset) {
        return Status::Internal("arena: aliased value " + V(id) +
                                " does not share its root's offset");
      }
      continue;
    }
    if (rdef[id] == kNoDef) {
      if (v.offset != kNoOffset) {
        return Status::Internal("arena: dead local " + V(id) +
                                " carries a planned offset");
      }
      continue;
    }
    if (v.offset == kNoOffset) {
      return Status::Internal("arena: live local " + V(id) + " is unplanned");
    }
    if (v.offset % kAlignFloats != 0) {
      return Status::Internal("arena: value " + V(id) + " offset " +
                              std::to_string(v.offset) +
                              " breaks 64-byte alignment");
    }
    const size_t aligned =
        (v.size() + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
    if (v.offset + aligned > p.frame_floats) {
      return Status::Internal(
          "arena: value " + V(id) + " range [" + std::to_string(v.offset) +
          ", " + std::to_string(v.offset + aligned) + ") exceeds frame of " +
          std::to_string(p.frame_floats) + " floats");
    }
    live_roots.push_back(id);
  }
  for (size_t a = 0; a < live_roots.size(); ++a) {
    for (size_t b = a + 1; b < live_roots.size(); ++b) {
      const uint32_t x = live_roots[a];
      const uint32_t y = live_roots[b];
      if (rdef[x] > rend[y] || rdef[y] > rend[x]) continue;  // disjoint lives
      const Value& vx = p.values[x];
      const Value& vy = p.values[y];
      const size_t ax =
          (vx.size() + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
      const size_t ay =
          (vy.size() + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
      if (vx.offset < vy.offset + ay && vy.offset < vx.offset + ax) {
        return Status::Internal(
            "arena: simultaneously live values " + V(x) + " and " + V(y) +
            " overlap (ranges [" + std::to_string(vx.offset) + ", " +
            std::to_string(vx.offset + ax) + ") and [" +
            std::to_string(vy.offset) + ", " +
            std::to_string(vy.offset + ay) + "))");
      }
    }
  }
  return Status::OK();
}

}  // namespace ir
}  // namespace seqfm
