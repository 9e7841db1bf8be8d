//===- fuzz/Generator.cpp - Adversarial random programs -------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include "ir/ProgramBuilder.h"
#include "support/Rng.h"

#include <optional>
#include <string>
#include <vector>

using namespace intro;
using namespace intro::fuzz;

namespace {

/// Builds one program: a planted pathological shape (per bias) surrounded by
/// uniform random noise.  The noise phase keeps its own class/field/method
/// pools so the planted structure is never accidentally diluted by it.
class FuzzGen {
public:
  FuzzGen(uint64_t Seed, FuzzBias Bias, const FuzzProgramOptions &Options)
      : R(Seed), Bias(Bias), Opt(Options) {}

  Program run() {
    Root = B.cls("Object");
    Types.push_back(Root);
    Main = B.method(Root, "main", 0, /*IsStatic=*/true);
    B.entry(Main->id());

    switch (Bias) {
    case FuzzBias::Uniform:
      break;
    case FuzzBias::HubObjects:
      plantHub();
      break;
    case FuzzBias::DeepCalls:
      plantDeepChain();
      break;
    case FuzzBias::CastHeavy:
      plantCastLattice();
      break;
    case FuzzBias::DegenerateHierarchy:
      plantDegenerateHierarchy();
      break;
    case FuzzBias::CornerShapes:
      plantCornerShapes();
      break;
    }

    makeNoiseClasses();
    declareNoiseMethods();
    fillNoiseBodies();
    fillMain();
    return B.take();
  }

private:
  // --- Planted shapes ----------------------------------------------------

  /// Hub: one class, one field, and Opt.HubAllocSites allocation sites that
  /// all flow into a single variable and a single field of a single base
  /// object.  The hub variable's points-to set crosses the IdSet promotion
  /// threshold; loading the field back gives a second dense set built via
  /// batched unions.
  void plantHub() {
    TypeId Node = B.cls("Hub", Root);
    Types.push_back(Node);
    FieldId Slot = B.field(Node, "slot");
    Fields.push_back(Slot);
    MethodBuilder &M = *Main;
    VarId Hub = M.local("hub");
    VarId Base = M.local("hubBase");
    M.alloc(Base, Node);
    for (uint32_t Index = 0; Index < Opt.HubAllocSites; ++Index) {
      M.alloc(Hub, Node);
      M.store(Base, Slot, Hub);
    }
    VarId Back = M.local("hubBack");
    M.load(Back, Base, Slot);
    // Funnel the dense set through a cast and a self-move, so the filtered
    // and copy paths see a promoted set too.
    VarId Cast = M.local("hubCast");
    M.cast(Cast, Back, Node);
    M.move(Back, Back);
    MainPool.push_back(Base);
    MainPool.push_back(Back);
  }

  /// Deep calls: step0(x) -> step1(x) -> ... each static method passes its
  /// payload down and the return value back up, with a fresh allocation
  /// mixed in at every level.  Context-sensitive policies truncate somewhere
  /// inside the chain; the bottom also calls back to the top so the chain
  /// is cyclic for half the seeds.
  void plantDeepChain() {
    uint32_t Depth = 2 + R.below(Opt.CallChainDepth);
    std::vector<MethodBuilder> Steps;
    for (uint32_t Index = 0; Index < Depth; ++Index)
      Steps.push_back(
          B.method(Root, "step" + std::to_string(Index), 1, /*IsStatic=*/true));
    bool Cyclic = R.chance(500);
    for (uint32_t Index = 0; Index < Depth; ++Index) {
      MethodBuilder &M = Steps[Index];
      VarId Payload = M.formal(0);
      VarId Fresh = M.local("fresh");
      M.alloc(Fresh, Root);
      VarId Got = M.local("got");
      if (Index + 1 < Depth) {
        M.scall(Got, Steps[Index + 1].id(), {Payload});
      } else if (Cyclic) {
        M.scall(Got, Steps[0].id(), {Fresh});
      } else {
        M.move(Got, Fresh);
      }
      M.move(M.returnVar(), R.chance(500) ? Got : Payload);
    }
    MethodBuilder &M = *Main;
    VarId Seed = M.local("chainSeed");
    M.alloc(Seed, Root);
    VarId Out = M.local("chainOut");
    M.scall(Out, Steps[0].id(), {Seed});
    MainPool.push_back(Out);
  }

  /// Casts: a small sibling lattice (Base with children L and Rt, grandchild
  /// LL) and a chain of casts that alternately widen and narrow a mixed set.
  /// Concretely some casts succeed and some fail, so the solver's
  /// cast-as-filter option and the interpreter's exact semantics diverge in
  /// interesting (but sound) ways.
  void plantCastLattice() {
    TypeId Base = B.cls("CastBase", Root);
    TypeId Left = B.cls("CastL", Base);
    TypeId Right = B.cls("CastR", Base);
    TypeId LeftLeft = B.cls("CastLL", Left);
    std::vector<TypeId> Lattice = {Base, Left, Right, LeftLeft};
    for (TypeId T : Lattice)
      Types.push_back(T);
    MethodBuilder &M = *Main;
    VarId Mixed = M.local("mixed");
    for (TypeId T : Lattice)
      M.alloc(Mixed, T);
    VarId Prev = Mixed;
    for (uint32_t Index = 0; Index < Opt.CastChainLength; ++Index) {
      VarId Next = M.local("cast" + std::to_string(Index));
      M.cast(Next, Prev, Lattice[R.below(4)]);
      // Occasionally re-widen so the chain does not drain to empty.
      if (R.chance(300))
        M.alloc(Next, Lattice[R.below(4)]);
      Prev = Next;
    }
    MainPool.push_back(Mixed);
    MainPool.push_back(Prev);
  }

  /// Degenerate hierarchy: a single-inheritance chain Depth deep where every
  /// level overrides `id`, plus a flat fan of Width leaves under the chain's
  /// root that do NOT override it (inheriting the deepest ancestor's copy).
  /// A receiver holding one object of every class exercises LOOKUP across
  /// the whole degenerate shape.
  void plantDegenerateHierarchy() {
    std::vector<TypeId> Chain;
    TypeId Prev = Root;
    for (uint32_t Index = 0; Index < Opt.HierarchyDepth; ++Index) {
      TypeId T = B.cls("Deep" + std::to_string(Index), Prev);
      Chain.push_back(T);
      Types.push_back(T);
      Prev = T;
    }
    // Overrides along the chain: every other level, so lookup must walk.
    std::vector<MethodBuilder> Ids;
    for (uint32_t Index = 0; Index < Chain.size(); ++Index)
      if (Index % 2 == 0 || R.chance(300))
        Ids.push_back(B.method(Chain[Index], "id", 0, /*IsStatic=*/false));
    std::vector<TypeId> Leaves;
    for (uint32_t Index = 0; Index < Opt.HierarchyWidth; ++Index) {
      TypeId Leaf = B.cls("Wide" + std::to_string(Index), Chain.back());
      Leaves.push_back(Leaf);
      Types.push_back(Leaf);
    }
    for (MethodBuilder &M : Ids)
      M.move(M.returnVar(), M.thisVar());
    MethodBuilder &M = *Main;
    VarId Recv = M.local("degRecv");
    for (TypeId T : Chain)
      M.alloc(Recv, T);
    for (TypeId T : Leaves)
      M.alloc(Recv, T);
    VarId Got = M.local("degGot");
    M.vcall(Got, Recv, "id", {});
    M.vcall(Got, Got, "id", {});
    MainPool.push_back(Recv);
    MainPool.push_back(Got);
  }

  /// Corner shapes: structure that is syntactically legal but semantically
  /// empty or redundant — empty bodies, duplicate instructions, self-moves
  /// and self-stores, virtual dispatch on a variable that never receives an
  /// object, methods only reachable through themselves.
  void plantCornerShapes() {
    TypeId Ghost = B.cls("Ghost", Root);
    Types.push_back(Ghost);
    FieldId Loop = B.field(Ghost, "loop");
    Fields.push_back(Loop);
    // Empty virtual method and an empty static method.
    B.method(Ghost, "nop", 0, /*IsStatic=*/false);
    MethodBuilder Orphan = B.method(Ghost, "orphan", 0, /*IsStatic=*/true);
    // Unreachable self-recursion: orphan calls itself, nobody calls orphan.
    Orphan.scall(VarId::invalid(), Orphan.id(), {});
    MethodBuilder &M = *Main;
    VarId Never = M.local("never");
    // Dispatch with no receivers: `never` has an empty points-to set.
    M.vcall(VarId::invalid(), Never, "nop", {});
    VarId Self = M.local("self");
    M.alloc(Self, Ghost);
    // Duplicate edges: the same move/store/load emitted repeatedly.
    for (uint32_t Index = 0; Index < 4 + R.below(4); ++Index) {
      M.move(Self, Self);
      M.store(Self, Loop, Self);
      M.load(Self, Self, Loop);
    }
    // A duplicate call site pair (same base, same signature).
    M.vcall(VarId::invalid(), Self, "nop", {});
    M.vcall(VarId::invalid(), Self, "nop", {});
    MainPool.push_back(Self);
    MainPool.push_back(Never);
  }

  // --- Uniform noise -----------------------------------------------------

  void makeNoiseClasses() {
    for (uint32_t Index = 0; Index < Opt.NumClasses; ++Index) {
      TypeId Super = Types[R.below(static_cast<uint32_t>(Types.size()))];
      Types.push_back(B.cls("N" + std::to_string(Index), Super));
    }
    for (TypeId Type : Types)
      if (R.chance(400))
        Fields.push_back(B.field(Type, "g" + std::to_string(Fields.size())));
  }

  void declareNoiseMethods() {
    for (uint32_t Sig = 0; Sig < Opt.NumVirtualSigs; ++Sig) {
      std::string Name = "v" + std::to_string(Sig);
      uint32_t Arity = R.below(3);
      SigArities.push_back(Arity);
      for (TypeId Type : Types)
        if (R.chance(400))
          Bodies.push_back(B.method(Type, Name, Arity, /*IsStatic=*/false));
    }
    for (uint32_t Index = 0; Index < Opt.NumStaticMethods; ++Index) {
      MethodBuilder M =
          B.method(Types[R.below(static_cast<uint32_t>(Types.size()))],
                   "h" + std::to_string(Index), R.below(3), /*IsStatic=*/true);
      Statics.push_back(M.id());
      Bodies.push_back(M);
    }
  }

  VarId randomVar(MethodBuilder &MB, std::vector<VarId> &Pool) {
    if (Pool.empty() || (Pool.size() < Opt.LocalsPerMethod && R.chance(300)))
      Pool.push_back(MB.local("t" + std::to_string(Pool.size())));
    return Pool[R.below(static_cast<uint32_t>(Pool.size()))];
  }

  TypeId randomType() {
    return Types[R.below(static_cast<uint32_t>(Types.size()))];
  }

  void emitNoise(MethodBuilder MB, uint32_t Length, std::vector<VarId> Pool) {
    const MethodInfo &Info = B.current().method(MB.id());
    if (!Info.IsStatic)
      Pool.push_back(Info.This);
    for (VarId Formal : Info.Formals)
      Pool.push_back(Formal);

    for (uint32_t Index = 0; Index < Length; ++Index) {
      switch (R.below(10)) {
      case 0:
      case 1:
        MB.alloc(randomVar(MB, Pool), randomType());
        break;
      case 2:
        MB.move(randomVar(MB, Pool), randomVar(MB, Pool));
        break;
      case 3:
        MB.cast(randomVar(MB, Pool), randomVar(MB, Pool), randomType());
        break;
      case 4:
        if (!Fields.empty())
          MB.load(randomVar(MB, Pool), randomVar(MB, Pool),
                  Fields[R.below(static_cast<uint32_t>(Fields.size()))]);
        break;
      case 5:
        if (!Fields.empty())
          MB.store(randomVar(MB, Pool),
                   Fields[R.below(static_cast<uint32_t>(Fields.size()))],
                   randomVar(MB, Pool));
        break;
      case 6: {
        if (SigArities.empty())
          break;
        uint32_t Sig = R.below(static_cast<uint32_t>(SigArities.size()));
        std::vector<VarId> Args;
        for (uint32_t Arg = 0; Arg < SigArities[Sig]; ++Arg)
          Args.push_back(randomVar(MB, Pool));
        VarId Result = R.chance(600) ? randomVar(MB, Pool) : VarId::invalid();
        SiteId Site = MB.vcall(Result, randomVar(MB, Pool),
                               "v" + std::to_string(Sig), Args);
        if (R.chance(250))
          MB.attachCatch(Site, randomType(), randomVar(MB, Pool));
        break;
      }
      case 7: {
        if (Statics.empty())
          break;
        MethodId Target =
            Statics[R.below(static_cast<uint32_t>(Statics.size()))];
        const MethodInfo &TargetInfo = B.current().method(Target);
        std::vector<VarId> Args;
        for (size_t Arg = 0; Arg < TargetInfo.Formals.size(); ++Arg)
          Args.push_back(randomVar(MB, Pool));
        VarId Result = R.chance(600) ? randomVar(MB, Pool) : VarId::invalid();
        SiteId Site = MB.scall(Result, Target, Args);
        if (R.chance(250))
          MB.attachCatch(Site, randomType(), randomVar(MB, Pool));
        break;
      }
      case 8:
        if (!Fields.empty()) {
          FieldId F = Fields[R.below(static_cast<uint32_t>(Fields.size()))];
          if (R.chance(500))
            MB.sload(randomVar(MB, Pool), F);
          else
            MB.sstore(F, randomVar(MB, Pool));
        }
        break;
      case 9:
        if (R.chance(350))
          MB.throwStmt(randomVar(MB, Pool));
        break;
      }
    }
    if (R.chance(500) && !Pool.empty())
      MB.move(MB.returnVar(),
              Pool[R.below(static_cast<uint32_t>(Pool.size()))]);
  }

  void fillNoiseBodies() {
    for (MethodBuilder &MB : Bodies)
      emitNoise(MB, 1 + R.below(Opt.InstructionsPerBody), {});
  }

  void fillMain() {
    MethodBuilder &M = *Main;
    // Guarantee receivers even for Uniform (the planted shapes already
    // allocated into MainPool for the other biases).
    for (uint32_t Index = 0; Index < 2 + R.below(3); ++Index) {
      VarId Var = M.local("r" + std::to_string(Index));
      M.alloc(Var, randomType());
      MainPool.push_back(Var);
    }
    emitNoise(M, 3 + R.below(Opt.InstructionsPerBody), MainPool);
    // Half the seeds end main with a throw of a definitely-allocated
    // object: escaping-exception facts (MethodThrows / THROWPOINTSTO) are
    // otherwise too rare for the oracles to exercise them reliably.
    if (R.chance(500))
      M.throwStmt(MainPool[R.below(static_cast<uint32_t>(MainPool.size()))]);
  }

  Rng R;
  FuzzBias Bias;
  const FuzzProgramOptions &Opt;
  ProgramBuilder B;
  TypeId Root;
  std::optional<MethodBuilder> Main;
  std::vector<VarId> MainPool;
  std::vector<TypeId> Types;
  std::vector<FieldId> Fields;
  std::vector<MethodBuilder> Bodies;
  std::vector<MethodId> Statics;
  std::vector<uint32_t> SigArities;
};

} // namespace

const char *intro::fuzz::fuzzBiasName(FuzzBias Bias) {
  switch (Bias) {
  case FuzzBias::Uniform:
    return "uniform";
  case FuzzBias::HubObjects:
    return "hub-objects";
  case FuzzBias::DeepCalls:
    return "deep-calls";
  case FuzzBias::CastHeavy:
    return "cast-heavy";
  case FuzzBias::DegenerateHierarchy:
    return "degenerate-hierarchy";
  case FuzzBias::CornerShapes:
    return "corner-shapes";
  }
  return "unknown";
}

bool intro::fuzz::fuzzBiasFromName(std::string_view Name, FuzzBias &Bias) {
  for (size_t Index = 0; Index < NumFuzzBiases; ++Index) {
    FuzzBias Candidate = static_cast<FuzzBias>(Index);
    if (Name == fuzzBiasName(Candidate)) {
      Bias = Candidate;
      return true;
    }
  }
  return false;
}

FuzzBias intro::fuzz::biasForSeed(uint64_t Seed) {
  return static_cast<FuzzBias>(Seed % NumFuzzBiases);
}

Program intro::fuzz::generateFuzzProgram(uint64_t Seed, FuzzBias Bias,
                                         const FuzzProgramOptions &Options) {
  return FuzzGen(Seed, Bias, Options).run();
}
