#pragma once
// Value cells and the value writes that install them, shared by the
// Harris-Michael list (hm_list.hpp) and the Natarajan BST
// (natarajan_bst.hpp).
//
// A node (list node or BST leaf) keeps its value in a separately
// allocated, tracker-reclaimed ValueCell behind an atomic cell word.  A
// write either links a fresh node carrying a fresh cell (the key was
// absent) or CAS-swaps a present key's cell word and retires the
// displaced cell; it allocates its cell only once it knows it will try
// one of those two CASes, so a write that finds nothing to do allocates
// nothing.

#include "reclaim/block.hpp"

namespace wfe::ds {

/// The separately reclaimed value: immutable once published, replaced
/// wholesale by a cell-word CAS.
template <class V>
struct ValueCell : reclaim::Block {
  explicit ValueCell(const V& v) : value(v) {}
  const V value;
};

/// Which value write an upsert performs: insert-if-absent,
/// insert-or-replace, replace-if-present, or replace-if-present-with-
/// value-equal-to-`expected` (the list only).
enum class Upsert { kInsert, kPut, kUpdate, kCas };

/// What a completed write did; both false means it changed nothing
/// (insert of a present key, update or cas of an absent key, cas whose
/// `expected` did not match).
struct UpsertOutcome {
  bool inserted = false;  ///< the key was absent: a fresh node now holds it
  bool replaced = false;  ///< a present key's cell was swapped and retired
};

}  // namespace wfe::ds
