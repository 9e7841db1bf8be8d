//===- support/IdSet.cpp - Adaptive dense-handle set ----------------------===//
//
// Part of the introspective-analysis project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/IdSet.h"

#include <algorithm>
#include <cassert>

using namespace intro;

uint64_t IdSet::findBitFrom(uint64_t From) const {
  uint64_t End = static_cast<uint64_t>(Words.size()) * 64;
  if (From >= End)
    return End;
  size_t Word = static_cast<size_t>(From >> 6);
  uint64_t Bits = Words[Word] >> (From & 63);
  if (Bits != 0)
    return From + static_cast<uint64_t>(__builtin_ctzll(Bits));
  for (++Word; Word < Words.size(); ++Word)
    if (Words[Word] != 0)
      return (static_cast<uint64_t>(Word) << 6) +
             static_cast<uint64_t>(__builtin_ctzll(Words[Word]));
  return End;
}

void IdSet::maybePromote() {
  if (Dense || Small.size() < DefaultPromoteThreshold)
    return;
  // Density condition: the bitmap may not be sparser than one element per
  // word, i.e. 8 bitmap bytes per at most 8 vector bytes (2x overhead cap).
  if (wordsFor(Small.back()) > Small.size())
    return;
  Words.assign(wordsFor(Small.back()), 0);
  for (uint32_t Value : Small)
    Words[Value >> 6] |= uint64_t(1) << (Value & 63);
  Count = Small.size();
  Small = decltype(Small)();
  Dense = true;
}

void IdSet::demote() {
  assert(Dense && "demote of a small set");
  Small.reserve(Count);
  forEach([this](uint32_t Value) { Small.push_back(Value); });
  Words = decltype(Words)();
  Count = 0;
  Dense = false;
}

bool IdSet::ensureDenseCapacity(uint32_t MaxValue, size_t FinalCount) {
  size_t Needed = wordsFor(MaxValue);
  if (Needed <= Words.size())
    return true;
  // Sparse-outlier guard: a handle far beyond the populated range must not
  // balloon the bitmap (16 bytes per element is the cap — twice the 2x
  // bound the promotion condition guarantees, leaving room for growth).
  if (Needed > 2 * FinalCount) {
    demote();
    return false;
  }
  size_t Grown = std::max(Needed, Words.size() * 2);
  Words.resize(Grown, 0);
  return true;
}

void IdSet::insertNewSorted(std::span<const uint32_t> Values) {
  if (Values.empty())
    return;
  if (Dense) {
    if (!ensureDenseCapacity(Values.back(), Count + Values.size())) {
      insertNewSorted(Values); // Demoted: redo on the small path.
      return;
    }
    for (uint32_t Value : Values) {
      assert(!(Words[Value >> 6] >> (Value & 63) & 1) &&
             "insertNewSorted element already present");
      Words[Value >> 6] |= uint64_t(1) << (Value & 63);
    }
    Count += Values.size();
    return;
  }
  if (Small.empty() || Small.back() < Values.front()) {
    Small.insert(Small.end(), Values.begin(), Values.end());
  } else {
    CountedVector<uint32_t> Merged;
    Merged.reserve(Small.size() + Values.size());
    std::merge(Small.begin(), Small.end(), Values.begin(), Values.end(),
               std::back_inserter(Merged));
    assert(std::adjacent_find(Merged.begin(), Merged.end()) == Merged.end() &&
           "insertNewSorted element already present");
    Small.swap(Merged);
  }
  maybePromote();
}

bool IdSet::operator==(const IdSet &Other) const {
  if (size() != Other.size())
    return false;
  auto It = Other.begin();
  for (uint32_t Value : *this) {
    if (Value != *It)
      return false;
    ++It;
  }
  return true;
}
