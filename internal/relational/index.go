package relational

import "sort"

// HashIndex maps the values of one or more key columns to the row numbers
// holding them. It backs the conventional hash joins used by the baseline's
// relational plan (Q1 in the paper's Figure 3).
type HashIndex struct {
	table   *Table
	cols    []int
	buckets map[uint64][]int32
}

// BuildHashIndex indexes table on the given key columns.
func BuildHashIndex(table *Table, cols ...int) *HashIndex {
	idx := &HashIndex{
		table:   table,
		cols:    append([]int(nil), cols...),
		buckets: make(map[uint64][]int32, table.Len()),
	}
	n := table.Len()
	for i := 0; i < n; i++ {
		h := idx.hashRow(i)
		idx.buckets[h] = append(idx.buckets[h], int32(i))
	}
	return idx
}

// fnv-1a over the key values of row i.
func (idx *HashIndex) hashRow(i int) uint64 {
	h := hashSeed
	for _, c := range idx.cols {
		h = hashValue(h, idx.table.Value(i, c))
	}
	return h
}

// hashSeed is the FNV-1a offset basis every value hash starts from.
const hashSeed = uint64(14695981039346656037)

// hashKey hashes a composite key with FNV-1a over each value's bytes, the
// same hash hashRow computes over a stored row's key columns.
func hashKey(key []Value) uint64 {
	h := hashSeed
	for _, v := range key {
		h = hashValue(h, v)
	}
	return h
}

// hashValue folds one value into a running FNV-1a state h.
func hashValue(h uint64, v Value) uint64 {
	x := uint64(v)
	for b := 0; b < 8; b++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Probe invokes f with each row number whose key columns equal key, in
// storage order. Hash collisions are resolved by value comparison.
func (idx *HashIndex) Probe(key []Value, f func(row int) bool) {
	for _, r := range idx.buckets[hashKey(key)] {
		match := true
		for j, c := range idx.cols {
			if idx.table.Value(int(r), c) != key[j] {
				match = false
				break
			}
		}
		if match && !f(int(r)) {
			return
		}
	}
}

// Contains reports whether any row matches key.
func (idx *HashIndex) Contains(key []Value) bool {
	found := false
	idx.Probe(key, func(int) bool { found = true; return false })
	return found
}

// ValueSet is an immutable sorted set of distinct values supporting the seek
// operations the leapfrog intersection needs.
type ValueSet struct{ vals []Value }

// NewValueSet builds a set from vals, sorting and deduplicating a copy.
func NewValueSet(vals []Value) *ValueSet {
	vs := append([]Value(nil), vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	w := 0
	for i, v := range vs {
		if i == 0 || v != vs[w-1] {
			vs[w] = v
			w++
		}
	}
	return &ValueSet{vals: vs[:w]}
}

// Len reports the number of distinct values.
func (s *ValueSet) Len() int { return len(s.vals) }

// At returns the i-th smallest value.
func (s *ValueSet) At(i int) Value { return s.vals[i] }

// Values returns the underlying sorted slice; the caller must not mutate it.
func (s *ValueSet) Values() []Value { return s.vals }

// SeekGE returns the index of the first value >= v, or Len() if none.
func (s *ValueSet) SeekGE(v Value) int {
	return sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
}

// Contains reports whether v is in the set.
func (s *ValueSet) Contains(v Value) bool {
	i := s.SeekGE(v)
	return i < len(s.vals) && s.vals[i] == v
}
