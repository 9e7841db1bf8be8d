//===- workload/Generator.cpp - Synthetic benchmark programs --------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include "ir/ProgramBuilder.h"
#include "support/Concat.h"
#include "support/Rng.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace intro;

namespace {

/// One class-hierarchy family: an abstract base, its variants, and the
/// output classes their `workN()` methods allocate.
struct Family {
  TypeId Base;
  std::string WorkName;
  std::vector<TypeId> Variants;
};

class Generator {
public:
  explicit Generator(const WorkloadProfile &Profile)
      : P(Profile), R(Profile.Seed) {}

  Program run() {
    Object = B.cls("Object");
    makeFamilies();
    makeContainers();
    makeHub();
    makeUtils();
    makeHelpersAndClients();
    makeGenClasses();
    makeRegistryScanners();
    makeUtilDrives();
    makeContainerUses();
    makeLeafChain();
    makeMain();
    return B.take();
  }

private:
  // --- Breadth -------------------------------------------------------------

  void makeFamilies() {
    Families.reserve(P.NumFamilies);
    for (uint32_t F = 0; F < P.NumFamilies; ++F) {
      Family Fam;
      Fam.Base = B.cls(concat("Fam", F), Object);
      Fam.WorkName = concat("work", F);
      TypeId OutBase = B.cls(concat("Out", F), Object);
      for (uint32_t V = 0; V < P.VariantsPerFamily; ++V) {
        TypeId Variant = B.cls(concat("Fam", F, "_V", V), Fam.Base);
        TypeId OutType = B.cls(concat("Out", F, "_V", V), OutBase);
        MethodBuilder Work = B.method(Variant, Fam.WorkName, 0);
        Work.alloc(Work.returnVar(), OutType);
        Fam.Variants.push_back(Variant);
      }
      Families.push_back(std::move(Fam));
    }
  }

  void makeContainers() {
    Containers.reserve(P.NumContainerClasses);
    for (uint32_t C = 0; C < P.NumContainerClasses; ++C) {
      TypeId Cont = B.cls(concat("Cont", C), Object);
      FieldId Payload = B.field(Cont, "f");
      MethodBuilder Set = B.method(Cont, "set", 1);
      Set.store(Set.thisVar(), Payload, Set.formal(0));
      MethodBuilder Get = B.method(Cont, "get", 0);
      Get.load(Get.returnVar(), Get.thisVar(), Payload);
      Containers.push_back(Cont);
    }
  }

  // --- Hub pathology ----------------------------------------------------------

  void makeHub() {
    HubType = B.cls("Hub", Object);
    FieldId Slot = B.field(HubType, "slot");
    MethodBuilder Put = B.method(HubType, "put", 1);
    Put.store(Put.thisVar(), Slot, Put.formal(0));
    MethodBuilder Pull = B.method(HubType, "pull", 0);
    Pull.load(Pull.returnVar(), Pull.thisVar(), Slot);

    // The registry is a second, independent conflation point with the same
    // shape; clients registered here do not fatten the hub's payload sets.
    RegistryType = B.cls("Registry", Object);
    FieldId RegSlot = B.field(RegistryType, "slot");
    MethodBuilder Reg = B.method(RegistryType, "put", 1);
    Reg.store(Reg.thisVar(), RegSlot, Reg.formal(0));
    MethodBuilder Scan = B.method(RegistryType, "pull", 0);
    Scan.load(Scan.returnVar(), Scan.thisVar(), RegSlot);
  }

  /// Static methods that sweep the registry into many locals, raising the
  /// pointed-by-vars metric of every registered object.
  void makeRegistryScanners() {
    if (!P.UseRegistry)
      return;
    for (uint32_t S = 0; S < P.RegistryScanMethods; ++S) {
      MethodBuilder Scan =
          B.method(Object, concat("scanRegistry", S), 1, /*IsStatic=*/true);
      VarId Swept = Scan.local("o");
      Scan.vcall(Swept, Scan.formal(0), "pull", {});
      for (uint32_t W = 0; W < P.RegistryScanLocals; ++W) {
        VarId Spread = Scan.local(concat("w", W));
        Scan.move(Spread, Swept);
      }
      RegistryScanners.push_back(Scan.id());
    }
  }

  // --- Utility DAG (call-site pathology) ---------------------------------------

  void makeUtils() {
    if (P.UtilLevels == 0 || P.UtilMethodsPerLevel == 0)
      return;
    UtilMethods.resize(P.UtilLevels);
    // Declare all levels first (bottom level has no callees).
    std::vector<std::vector<MethodBuilder>> Builders(P.UtilLevels);
    for (uint32_t L = 0; L < P.UtilLevels; ++L)
      for (uint32_t M = 0; M < P.UtilMethodsPerLevel; ++M) {
        Builders[L].push_back(
            B.method(Object, concat("util", L, "_", M), 1, /*IsStatic=*/true));
        UtilMethods[L].push_back(Builders[L].back().id());
      }
    // Bodies: pass the payload down `UtilFanout` randomly chosen methods of
    // the next level; bottom level is the identity.
    for (uint32_t L = 0; L < P.UtilLevels; ++L)
      for (uint32_t M = 0; M < P.UtilMethodsPerLevel; ++M) {
        MethodBuilder &Util = Builders[L][M];
        VarId Arg = Util.formal(0);
        Util.move(Util.returnVar(), Arg);
        if (L + 1 >= P.UtilLevels)
          continue;
        for (uint32_t Fan = 0; Fan < P.UtilFanout; ++Fan) {
          MethodId Callee =
              UtilMethods[L + 1][R.below(P.UtilMethodsPerLevel)];
          VarId Out = Util.local(concat("u", Fan));
          Util.scall(Out, Callee, {Arg});
        }
      }
  }

  // --- Clients and helpers (receiver-space pathology) ----------------------------

  void makeHelpersAndClients() {
    Clients.reserve(P.NumClientClasses);
    for (uint32_t K = 0; K < P.NumClientClasses; ++K) {
      // Helper chain classes: Helper_k_d.proc(p) stores p and forwards it.
      std::vector<TypeId> Helpers;
      for (uint32_t D = 0; D < P.HelperDepth; ++D)
        Helpers.push_back(B.cls(concat("Helper", K, "_", D), Object));
      for (uint32_t D = 0; D < P.HelperDepth; ++D) {
        FieldId Stash = B.field(Helpers[D], "hs");
        MethodBuilder Proc = B.method(Helpers[D], "proc", 1);
        Proc.store(Proc.thisVar(), Stash, Proc.formal(0));
        for (uint32_t W = 0; W < P.HelperSpreadLocals; ++W) {
          VarId Spread = Proc.local(concat("w", W));
          Proc.move(Spread, Proc.formal(0));
        }
        if (D + 1 < P.HelperDepth) {
          VarId Next = Proc.local("next");
          Proc.alloc(Next, Helpers[D + 1]);
          Proc.vcall(VarId::invalid(), Next, "proc", {Proc.formal(0)});
        }
      }

      // Client_k.run(hub): drain the hub, stash, spread the drained set over
      // extra locals, forward to helpers, and dispatch on the payload.
      TypeId Client = B.cls(concat("Client", K), Object);
      FieldId Stash = B.field(Client, "st");
      MethodBuilder Run = B.method(Client, "run", 1);
      VarId Hub = Run.formal(0);
      VarId Drained = Run.local("o");
      Run.vcall(Drained, Hub, "pull", {});
      Run.store(Run.thisVar(), Stash, Drained);
      for (uint32_t W = 0; W < P.SpreadLocalsPerRun; ++W) {
        VarId Spread = Run.local(concat("w", W));
        Run.move(Spread, Drained);
      }
      if (P.HelperDepth > 0)
        for (uint32_t H = 0; H < P.HelperSitesPerRun; ++H) {
          VarId Helper = Run.local(concat("h", H));
          Run.alloc(Helper, Helpers[0]);
          Run.vcall(VarId::invalid(), Helper, "proc", {Drained});
          if (P.PutHelpersInHub)
            Run.vcall(VarId::invalid(), Hub, "put", {Helper});
        }
      if (!Families.empty()) {
        // Dispatch on the (conflated) hub payload: inherently polymorphic.
        const Family &Fam = Families[R.below(P.NumFamilies)];
        VarId Narrowed = Run.local("n");
        Run.cast(Narrowed, Drained, Fam.Base);
        VarId Result = Run.local("r");
        Run.vcall(Result, Narrowed, Fam.WorkName, {});
      }
      Clients.push_back(Client);
    }
  }

  // --- Generator classes (allocator-class diversity, type pathology) --------------

  void makeGenClasses() {
    if (P.NumGenClasses == 0)
      return;
    // Distribute payload and client allocations round-robin over the
    // spawn() methods of NumGenClasses distinct classes: the class hosting
    // an allocation site is what a type-sensitive analysis uses as context.
    std::vector<MethodBuilder> Spawns;
    GenTypes.reserve(P.NumGenClasses);
    for (uint32_t G = 0; G < P.NumGenClasses; ++G) {
      TypeId Gen = B.cls(concat("Gen", G), Object);
      GenTypes.push_back(Gen);
      Spawns.push_back(B.method(Gen, "spawn", 2)); // (hub, registry)
    }
    for (uint32_t F = 0; F < P.HubFanout; ++F) {
      MethodBuilder &Spawn = Spawns[F % Spawns.size()];
      VarId Payload = Spawn.local(concat("p", F));
      if (Families.empty())
        Spawn.alloc(Payload, Object);
      else {
        const Family &Fam = Families[R.below(P.NumFamilies)];
        Spawn.alloc(Payload, Fam.Variants[R.below(P.VariantsPerFamily)]);
      }
      Spawn.vcall(VarId::invalid(), Spawn.formal(0), "put", {Payload});
    }
    uint32_t ClientSiteIndex = 0;
    for (uint32_t K = 0; K < P.NumClientClasses; ++K)
      for (uint32_t S = 0; S < P.ClientAllocSites; ++S) {
        MethodBuilder &Spawn = Spawns[ClientSiteIndex++ % Spawns.size()];
        VarId Client = Spawn.local(concat("c", K, "_", S));
        Spawn.alloc(Client, Clients[K]);
        Spawn.vcall(VarId::invalid(), Client, "run", {Spawn.formal(0)});
        if (P.PutClientsInHub)
          Spawn.vcall(VarId::invalid(), Spawn.formal(0), "put", {Client});
        if (P.UseRegistry)
          Spawn.vcall(VarId::invalid(), Spawn.formal(1), "put", {Client});
      }
  }

  // --- Utility-DAG drivers (call-site pathology entry points) ---------------

  void makeUtilDrives() {
    if (UtilMethods.empty() || P.UtilDriveMethods == 0)
      return;
    for (uint32_t D = 0; D < P.UtilDriveMethods; ++D) {
      MethodBuilder Drive =
          B.method(Object, concat("utilDrive", D), 1, /*IsStatic=*/true);
      VarId Hub = Drive.formal(0);
      VarId Drained = Drive.local("o");
      Drive.vcall(Drained, Hub, "pull", {});
      for (uint32_t E = 0; E < P.UtilEntrySitesPerDrive; ++E) {
        MethodId Entry = UtilMethods[0][R.below(P.UtilMethodsPerLevel)];
        VarId Out = Drive.local(concat("e", E));
        Drive.scall(Out, Entry, {Drained});
      }
      UtilDrives.push_back(Drive.id());
    }
  }

  // --- Container uses (precision-bearing code with casts) -------------------------

  /// Emits one container-use snippet into \p Host: allocate a container of
  /// class \p Cont, store a fresh variant, read it back, cast it, dispatch
  /// on it.  The exact-variant cast is provable under deep context (the
  /// container instance is distinguished) but "may fail" insensitively
  /// (payloads of one container class are conflated).
  void emitSnippet(MethodBuilder &Host, uint32_t N, TypeId Cont) {
    const Family &Fam = Families[R.below(P.NumFamilies)];
    TypeId Variant = Fam.Variants[R.below(P.VariantsPerFamily)];

    VarId Box = Host.local(concat("box", N));
    Host.alloc(Box, Cont);
    VarId Value = Host.local(concat("v", N));
    Host.alloc(Value, Variant);
    Host.vcall(VarId::invalid(), Box, "set", {Value});
    VarId Out = Host.local(concat("o", N));
    Host.vcall(Out, Box, "get", {});
    VarId Narrowed = Host.local(concat("w", N));
    Host.cast(Narrowed, Out, Variant);
    // Dispatch on the widened value: monomorphic under deep context.
    VarId Base = Host.local(concat("b", N));
    Host.cast(Base, Out, Fam.Base);
    VarId Result = Host.local(concat("r", N));
    Host.vcall(Result, Base, Fam.WorkName, {});
  }

  void makeContainerUses() {
    if (Containers.empty() || Families.empty())
      return;
    // Snippets are hosted in drive() methods of distinct module classes:
    // the hosting class is type-sensitivity's context element, so snippets
    // in different modules are distinguished by 2typeH while snippets
    // within one module are not (partial precision, as with real code).
    uint32_t PerMod = std::max(1u, P.SnippetsPerModClass);
    uint32_t Emitted = 0;
    MethodBuilder *Drive = nullptr;
    std::vector<MethodBuilder> Drives;
    uint32_t TotalUses = P.ContainerUses + P.PopularContainerUses;
    Drives.reserve(TotalUses / PerMod + 2);
    for (uint32_t N = 0; N < TotalUses; ++N) {
      if (Emitted % PerMod == 0) {
        TypeId Mod = B.cls(concat("Mod", Mods.size()), Object);
        Mods.push_back(Mod);
        Drives.push_back(B.method(Mod, "drive", 0));
        Drive = &Drives.back();
      }
      ++Emitted;
      // The popular container class 0 serves the extra uses; regular uses
      // draw a random container class.
      TypeId Cont = N < P.ContainerUses
                        ? Containers[R.below(P.NumContainerClasses)]
                        : Containers[0];
      emitSnippet(*Drive, N, Cont);
    }

    // Decoy variants: each is a fresh subclass of some family base whose
    // work() override exists, is *stored* into a popular-class container,
    // but is never retrieved from it -- a precise analysis proves the
    // override unreachable, a conflating one does not.
    for (uint32_t D = 0; D < P.DecoyVariants; ++D) {
      if (Emitted % PerMod == 0) {
        TypeId Mod = B.cls(concat("Mod", Mods.size()), Object);
        Mods.push_back(Mod);
        Drives.push_back(B.method(Mod, "drive", 0));
        Drive = &Drives.back();
      }
      ++Emitted;
      const Family &Fam = Families[R.below(P.NumFamilies)];
      TypeId Decoy = B.cls(concat("Decoy", D), Fam.Base);
      TypeId DecoyOut = B.cls(concat("DecoyOut", D), Object);
      MethodBuilder Work = B.method(Decoy, Fam.WorkName, 0);
      Work.alloc(Work.returnVar(), DecoyOut);

      VarId Box = Drive->local(concat("dbox", D));
      Drive->alloc(Box, Containers[0]);
      VarId Value = Drive->local(concat("dv", D));
      Drive->alloc(Value, Decoy);
      Drive->vcall(VarId::invalid(), Box, "set", {Value});
    }
  }

  void makeLeafChain() {
    if (P.LeafChainLength == 0)
      return;
    std::vector<MethodBuilder> Leaves;
    Leaves.reserve(P.LeafChainLength);
    for (uint32_t N = 0; N < P.LeafChainLength; ++N)
      Leaves.push_back(
          B.method(Object, concat("leaf", N), 1, /*IsStatic=*/true));
    for (uint32_t N = 0; N < P.LeafChainLength; ++N) {
      MethodBuilder &Leaf = Leaves[N];
      // Each leaf allocates a private scratch object (breadth: realistic
      // heap-site and points-to population without pathology).
      VarId Scratch = Leaf.local("s");
      if (!Families.empty()) {
        const Family &Fam = Families[R.below(P.NumFamilies)];
        Leaf.alloc(Scratch, Fam.Variants[R.below(P.VariantsPerFamily)]);
      } else {
        Leaf.alloc(Scratch, Object);
      }
      if (N + 1 < P.LeafChainLength)
        Leaf.scall(Leaf.returnVar(), Leaves[N + 1].id(), {Scratch});
      else
        Leaf.move(Leaf.returnVar(), Leaf.formal(0));
    }
    LeafEntry = Leaves.front().id();
  }

  // --- main -------------------------------------------------------------------

  void makeMain() {
    MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
    B.entry(Main.id());

    VarId Hub = Main.local("hub");
    Main.alloc(Hub, HubType);
    VarId Registry = Main.local("reg");
    Main.alloc(Registry, RegistryType);
    for (uint32_t G = 0; G < GenTypes.size(); ++G) {
      VarId Gen = Main.local(concat("g", G));
      Main.alloc(Gen, GenTypes[G]);
      Main.vcall(VarId::invalid(), Gen, "spawn", {Hub, Registry});
    }
    for (MethodId Scanner : RegistryScanners)
      Main.scall(VarId::invalid(), Scanner, {Registry});
    for (MethodId Drive : UtilDrives)
      Main.scall(VarId::invalid(), Drive, {Hub});
    for (uint32_t M = 0; M < Mods.size(); ++M) {
      VarId Mod = Main.local(concat("m", M));
      Main.alloc(Mod, Mods[M]);
      Main.vcall(VarId::invalid(), Mod, "drive", {});
    }
    if (LeafEntry.isValid()) {
      VarId Seed = Main.local("seed");
      if (Families.empty())
        Main.alloc(Seed, Object);
      else
        Main.alloc(Seed, Families[0].Variants[0]);
      Main.scall(VarId::invalid(), LeafEntry, {Seed});
    }
  }

  const WorkloadProfile &P;
  Rng R;
  ProgramBuilder B;

  TypeId Object;
  TypeId HubType;
  TypeId RegistryType;
  std::vector<MethodId> RegistryScanners;
  std::vector<Family> Families;
  std::vector<TypeId> Containers;
  std::vector<TypeId> Clients;
  std::vector<TypeId> GenTypes;
  std::vector<std::vector<MethodId>> UtilMethods;
  std::vector<MethodId> UtilDrives;
  std::vector<TypeId> Mods;
  MethodId LeafEntry;
};

} // namespace

Program intro::generateWorkload(const WorkloadProfile &Profile) {
  return Generator(Profile).run();
}
