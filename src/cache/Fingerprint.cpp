//===- cache/Fingerprint.cpp - Canonical program fingerprints -------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/Fingerprint.h"

#include "ir/Facts.h"
#include "ir/Program.h"

#include <array>

using namespace intro;
using namespace intro::cache;

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// 128-bit accumulator: two independently seeded 64-bit lanes, each mixed
/// with every input word.  Order-sensitive by construction — the relations
/// are hashed in a fixed schema order, and each relation's tuples in their
/// (deterministic) extraction order.
struct Hasher {
  uint64_t Hi = 0x243f6a8885a308d3ull; // pi digits: arbitrary distinct seeds
  uint64_t Lo = 0x13198a2e03707344ull;

  void u64(uint64_t V) {
    Lo = mix64(Lo ^ V);
    Hi = mix64(Hi + V * 0x9e3779b97f4a7c15ull + 0x452821e638d01377ull);
  }
  void u32(uint32_t V) { u64(V); }

  /// Hashes the text (FNV-1a folded in), never an interner handle.
  void str(std::string_view Text) {
    u64(Text.size());
    uint64_t Acc = 1469598103934665603ull;
    for (unsigned char C : Text) {
      Acc ^= C;
      Acc *= 1099511628211ull;
    }
    u64(Acc);
  }

  template <size_t N> void tuples(const std::vector<std::array<uint32_t, N>> &Rel) {
    u64(Rel.size());
    for (const std::array<uint32_t, N> &Row : Rel)
      for (uint32_t Column : Row)
        u32(Column);
  }
  void tuples(const std::vector<uint32_t> &Rel) {
    u64(Rel.size());
    for (uint32_t Value : Rel)
      u32(Value);
  }
};

} // namespace

Fingerprint cache::fingerprintProgram(const Program &Prog) {
  Hasher H;

  // Entity-table shapes first: two programs whose facts happen to coincide
  // but whose id spaces differ (e.g. an extra never-referenced variable)
  // must not collide — results are dense vectors over these spaces.
  H.u64(Prog.numTypes());
  H.u64(Prog.numFields());
  H.u64(Prog.numSignatures());
  H.u64(Prog.numMethods());
  H.u64(Prog.numVars());
  H.u64(Prog.numHeaps());
  H.u64(Prog.numSites());

  // Per-entity name text and structural columns, in dense-id order.  Name
  // handles are resolved through Program::name() so interner insertion
  // order cannot leak into the hash.
  for (uint32_t Index = 0; Index < Prog.numTypes(); ++Index) {
    const TypeInfo &Info = Prog.type(TypeId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Super.raw());
  }
  for (uint32_t Index = 0; Index < Prog.numFields(); ++Index) {
    const FieldInfo &Info = Prog.field(FieldId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Owner.raw());
  }
  for (uint32_t Index = 0; Index < Prog.numSignatures(); ++Index) {
    const SigInfo &Info = Prog.signature(SigId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Arity);
  }
  for (uint32_t Index = 0; Index < Prog.numMethods(); ++Index) {
    const MethodInfo &Info = Prog.method(MethodId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Owner.raw());
    H.u32(Info.Sig.raw());
    H.u32(Info.IsStatic ? 1 : 0);
  }
  for (uint32_t Index = 0; Index < Prog.numVars(); ++Index) {
    const VarInfo &Info = Prog.var(VarId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Owner.raw());
  }
  for (uint32_t Index = 0; Index < Prog.numHeaps(); ++Index) {
    const HeapInfo &Info = Prog.heap(HeapId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.Type.raw());
    H.u32(Info.InMethod.raw());
  }
  for (uint32_t Index = 0; Index < Prog.numSites(); ++Index) {
    const SiteInfo &Info = Prog.site(SiteId(Index));
    H.str(Prog.name(Info.Name));
    H.u32(Info.IsStatic ? 1 : 0);
    H.u32(Info.CatchType.raw());
  }

  // The analysis-relevant structure: every input relation of the model, in
  // a fixed schema order.  extractFacts walks the dense tables, so tuple
  // order is a pure function of the Program's content.
  ProgramFacts Facts = extractFacts(Prog);
  H.tuples(Facts.Alloc);
  H.tuples(Facts.Move);
  H.tuples(Facts.Cast);
  H.tuples(Facts.Subtype);
  H.tuples(Facts.Load);
  H.tuples(Facts.Store);
  H.tuples(Facts.SLoad);
  H.tuples(Facts.SStore);
  H.tuples(Facts.Throw);
  H.tuples(Facts.SiteInMethod);
  H.tuples(Facts.Catch);
  H.tuples(Facts.NoCatch);
  H.tuples(Facts.VCall);
  H.tuples(Facts.SCall);
  H.tuples(Facts.FormalArg);
  H.tuples(Facts.ActualArg);
  H.tuples(Facts.FormalReturn);
  H.tuples(Facts.ActualReturn);
  H.tuples(Facts.ThisVar);
  H.tuples(Facts.HeapType);
  H.tuples(Facts.Lookup);
  H.tuples(Facts.EntryMethods);

  Fingerprint Fp;
  // One more mix round so the final state is not a raw accumulator value.
  Fp.Hi = mix64(H.Hi ^ H.Lo);
  Fp.Lo = mix64(H.Lo + 0x9e3779b97f4a7c15ull * H.Hi);
  Fp.NumSites = static_cast<uint32_t>(Prog.numSites());
  Fp.NumMethods = static_cast<uint32_t>(Prog.numMethods());
  Fp.NumHeaps = static_cast<uint32_t>(Prog.numHeaps());
  return Fp;
}

std::string cache::toHex(const Fingerprint &Fp) {
  static const char Digits[] = "0123456789abcdef";
  std::string Text(32, '0');
  for (int Nibble = 0; Nibble < 16; ++Nibble) {
    Text[15 - Nibble] = Digits[(Fp.Hi >> (Nibble * 4)) & 0xF];
    Text[31 - Nibble] = Digits[(Fp.Lo >> (Nibble * 4)) & 0xF];
  }
  return Text;
}
