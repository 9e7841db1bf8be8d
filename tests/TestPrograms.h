//===- tests/TestPrograms.h - Canonical programs for tests ------*- C++ -*-===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hand-written programs with known analysis results, shared across
/// the test suites and bench/micro_engine.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_TESTPROGRAMS_H
#define TESTS_TESTPROGRAMS_H

#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "support/Concat.h"

#include <vector>

namespace intro::testing {

/// Handles into the "two boxes" program (see makeTwoBoxes).
struct TwoBoxes {
  Program Prog;
  TypeId Object, BoxT, AT, BT;
  VarId OutA, OutB; ///< Results of b1.get() / b2.get() in main.
  VarId CastA;      ///< (A) b1.get()
  SiteId SetCall1, SetCall2, GetCall1, GetCall2;
  HeapId Box1, Box2, HeapA, HeapB;
};

/// The classic container-imprecision example:
///
///   Box b1 = new Box();  Box b2 = new Box();
///   b1.set(new A());     b2.set(new B());
///   Object oa = b1.get();  Object ob = b2.get();
///   A ca = (A) oa;
///
/// A context-insensitive analysis conflates the two boxes, so `oa` points to
/// both A and B and the cast may fail.  Object-sensitivity (depth 1+) and
/// call-site-sensitivity (depth 1+) both prove the cast safe.
/// Type-sensitivity does NOT (both boxes are allocated in the same class).
inline TwoBoxes makeTwoBoxes() {
  TwoBoxes T;
  ProgramBuilder B;
  T.Object = B.cls("Object");
  T.BoxT = B.cls("Box", T.Object);
  T.AT = B.cls("A", T.Object);
  T.BT = B.cls("B", T.Object);
  FieldId F = B.field(T.BoxT, "f");

  MethodBuilder Set = B.method(T.BoxT, "set", 1);
  Set.store(Set.thisVar(), F, Set.formal(0));

  MethodBuilder Get = B.method(T.BoxT, "get", 0);
  Get.load(Get.returnVar(), Get.thisVar(), F);

  MethodBuilder Main = B.method(T.Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId B1 = Main.local("b1");
  VarId B2 = Main.local("b2");
  VarId VA = Main.local("a");
  VarId VB = Main.local("b");
  T.OutA = Main.local("oa");
  T.OutB = Main.local("ob");
  T.CastA = Main.local("ca");
  T.Box1 = Main.alloc(B1, T.BoxT);
  T.Box2 = Main.alloc(B2, T.BoxT);
  T.HeapA = Main.alloc(VA, T.AT);
  T.HeapB = Main.alloc(VB, T.BT);
  T.SetCall1 = Main.vcall(VarId::invalid(), B1, "set", {VA});
  T.SetCall2 = Main.vcall(VarId::invalid(), B2, "set", {VB});
  T.GetCall1 = Main.vcall(T.OutA, B1, "get", {});
  T.GetCall2 = Main.vcall(T.OutB, B2, "get", {});
  Main.cast(T.CastA, T.OutA, T.AT);

  T.Prog = B.take();
  return T;
}

/// Handles into the "dispatch" program (see makeDispatch).
struct Dispatch {
  Program Prog;
  TypeId Animal, Cat, Dog;
  VarId Sound1, Sound2;
  SiteId Call1, Call2;
  HeapId CatHeap, DogHeap, MeowHeap, WoofHeap;
};

/// Virtual dispatch with two receiver types:
///
///   Animal c = new Cat();  Animal d = new Dog();
///   Object s1 = c.speak();  // resolves only to Cat.speak
///   Object s2 = d.speak();  // resolves only to Dog.speak
///
/// Even a context-insensitive analysis devirtualizes both calls, because the
/// receiver variables are distinct.
inline Dispatch makeDispatch() {
  Dispatch T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  T.Animal = B.cls("Animal", Object);
  T.Cat = B.cls("Cat", T.Animal);
  T.Dog = B.cls("Dog", T.Animal);
  TypeId Meow = B.cls("Meow", Object);
  TypeId Woof = B.cls("Woof", Object);

  MethodBuilder CatSpeak = B.method(T.Cat, "speak", 0);
  T.MeowHeap = CatSpeak.alloc(CatSpeak.returnVar(), Meow);
  MethodBuilder DogSpeak = B.method(T.Dog, "speak", 0);
  T.WoofHeap = DogSpeak.alloc(DogSpeak.returnVar(), Woof);

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId C = Main.local("c");
  VarId D = Main.local("d");
  T.Sound1 = Main.local("s1");
  T.Sound2 = Main.local("s2");
  T.CatHeap = Main.alloc(C, T.Cat);
  T.DogHeap = Main.alloc(D, T.Dog);
  T.Call1 = Main.vcall(T.Sound1, C, "speak", {});
  T.Call2 = Main.vcall(T.Sound2, D, "speak", {});

  T.Prog = B.take();
  return T;
}

/// A program exercising static calls, moves, argument passing, recursion,
/// and an unreachable method.
struct Mixed {
  Program Prog;
  MethodId Unreachable;
  VarId Chained; ///< Receives the identity-chained allocation.
  HeapId Payload;
};

inline Mixed makeMixed() {
  Mixed T;
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId P = B.cls("Payload", Object);

  // static Object identity(Object p) { return p; }
  MethodBuilder Identity = B.method(Object, "identity", 1, /*IsStatic=*/true);
  Identity.move(Identity.returnVar(), Identity.formal(0));

  // static Object twice(Object p) { return identity(identity(p)); }
  MethodBuilder Twice = B.method(Object, "twice", 1, /*IsStatic=*/true);
  VarId Tmp = Twice.local("tmp");
  Twice.scall(Tmp, Identity.id(), {Twice.formal(0)});
  Twice.scall(Twice.returnVar(), Identity.id(), {Tmp});

  // static void orphan() { ... }  -- never called.
  MethodBuilder Orphan = B.method(Object, "orphan", 0, /*IsStatic=*/true);
  VarId OrphanVar = Orphan.local("x");
  Orphan.alloc(OrphanVar, P);
  T.Unreachable = Orphan.id();

  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());
  VarId X = Main.local("x");
  T.Chained = Main.local("y");
  T.Payload = Main.alloc(X, P);
  Main.scall(T.Chained, Twice.id(), {X});

  T.Prog = B.take();
  return T;
}

/// The hub-heavy flavor of the paper's bimodal inputs: \p NumSources feeder
/// variables whose allocation-site ids interleave (round-robin allocation
/// order), all merged into one hub variable by late copy edges, which then
/// fans out to \p NumConsumers more late edges.  Every merge into the hub
/// lands mid-set, and every consumer edge re-propagates the hub's full set
/// — exactly the propagation pattern that punishes per-object insertion.
/// The last \p LateObjects allocations follow the copy edges instead, so
/// they reach the hub as worklist deltas, one source at a time, and every
/// consumer then receives the same delta onto the same set.
inline Program hubHeavyProgram(uint32_t NumObjects, uint32_t NumSources,
                               uint32_t NumConsumers,
                               uint32_t LateObjects = 0) {
  ProgramBuilder B;
  TypeId Object = B.cls("Object");
  TypeId Payload = B.cls("Payload", Object);
  MethodBuilder Main = B.method(Object, "main", 0, /*IsStatic=*/true);
  B.entry(Main.id());

  std::vector<VarId> Sources;
  Sources.reserve(NumSources);
  for (uint32_t Index = 0; Index < NumSources; ++Index)
    Sources.push_back(Main.local(concat("s", Index)));
  // Round-robin allocation: source k owns heap ids k, k+S, k+2S, ... so the
  // per-source sets interleave when merged.
  for (uint32_t Index = 0; Index < NumObjects - LateObjects; ++Index)
    Main.alloc(Sources[Index % NumSources], Payload);

  VarId Hub = Main.local("hub");
  for (VarId Source : Sources)
    Main.move(Hub, Source);
  for (uint32_t Index = 0; Index < NumConsumers; ++Index)
    Main.move(Main.local(concat("c", Index)), Hub);
  for (uint32_t Index = NumObjects - LateObjects; Index < NumObjects; ++Index)
    Main.alloc(Sources[Index % NumSources], Payload);
  return B.take();
}

} // namespace intro::testing

#endif // TESTS_TESTPROGRAMS_H
