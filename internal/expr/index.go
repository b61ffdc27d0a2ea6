package expr

import "slices"

// TupleIndex finds keys that are short tuples of int32 words — a
// product's factor list, a hash-consed node's kind and children — by
// hash, without building a string. The caller keeps its keys in a list
// and passes keyAt, which returns the key at a position; the index holds
// each key's position plus one in an open-addressed table (0 is an empty
// slot, -1 a deleted one), probes linearly and is rebuilt at twice its
// live size once three quarters of its slots are taken. The zero value is
// an empty index.
type TupleIndex[W ~int32] struct {
	slots []int32
	used  int // slots that are not empty
}

// Find returns the position of key, or -1, and the slot that holds it or
// that Insert would fill. It does not change the index.
func (x *TupleIndex[W]) Find(key []W, keyAt func(int32) []W) (int32, int) {
	if x.slots == nil {
		return -1, -1
	}
	mask := len(x.slots) - 1
	for i := hashTuple(key) & mask; ; i = (i + 1) & mask {
		switch v := x.slots[i]; {
		case v == 0:
			return -1, i
		case v > 0 && slices.Equal(keyAt(v-1), key):
			return v - 1, i
		}
	}
}

// Insert records position pos at slot, where a Find for pos's key
// missed.
func (x *TupleIndex[W]) Insert(slot int, pos int32, keyAt func(int32) []W) {
	if x.slots == nil {
		x.slots = make([]int32, 16)
		slot = hashTuple(keyAt(pos)) & 15
	}
	x.slots[slot] = pos + 1
	x.used++
	if 4*x.used < 3*len(x.slots) {
		return
	}
	old, live := x.slots, 0
	for _, v := range old {
		if v > 0 {
			live++
		}
	}
	size := 16
	for size < 2*live {
		size <<= 1
	}
	x.slots, x.used = make([]int32, size), live
	mask := size - 1
	for _, v := range old {
		if v > 0 {
			i := hashTuple(keyAt(v-1)) & mask
			for x.slots[i] != 0 {
				i = (i + 1) & mask
			}
			x.slots[i] = v
		}
	}
}

// Move records that the key held at slot (as Find returned it) is now at
// position pos.
func (x *TupleIndex[W]) Move(slot int, pos int32) { x.slots[slot] = pos + 1 }

// Delete removes the key held at slot.
func (x *TupleIndex[W]) Delete(slot int) { x.slots[slot] = -1 }

// Clone returns an index that changes independently of x.
func (x *TupleIndex[W]) Clone() TupleIndex[W] {
	return TupleIndex[W]{slots: slices.Clone(x.slots), used: x.used}
}

// hashTuple hashes a key (FNV-1a over its words, then a multiplicative
// finish so the low bits depend on every word).
func hashTuple[W ~int32](key []W) int {
	h := uint64(14695981039346656037)
	for _, w := range key {
		h = (h ^ uint64(uint32(w))) * 1099511628211
	}
	return int((h * 0x9e3779b97f4a7c15) >> 33)
}
