package likelihood

// The P-matrix store: a kernel's per-category P(t) sets, kept for the
// branch lengths recent programs read, in storage the kernel sizes once
// and addresses by index — the way BEAGLE keeps its matrix buffers. A
// miss fills a set the store recycles; steady-state lookups allocate
// nothing.
//
//   - Storage is a list of chunks of matrices, carved into sets of the
//     current category count. A PSR site-rate resolution that changes the
//     count re-carves the same chunks (reset); no set is dropped as too
//     small and none grows.
//   - Sets are valid for one parameter generation; a new generation (or
//     category count) empties the index and frees every set.
//   - The store holds at most pStoreBound sets per edge of the kernel's
//     tree. A miss takes a free set; with none free it recycles one by a
//     clock sweep — a set read by the program in flight is never taken,
//     a set read since the hand last passed it gets a second chance — and
//     only when every set is read by the program in flight does the store
//     carve a new chunk. So the store grows to max(bound, the largest
//     program's distinct lengths) and no further.
//
// The policy moves no bit: a hit returns the doubles the miss path
// computes for the same (branch length, generation) key, so which sets
// the store keeps changes only the pcache_hits / pcache_misses counts
// (docs/DETERMINISM.md).

// pStoreBound is the store's bound in sets per edge of the kernel's
// tree; pChunkSets is how many sets of the current category count one
// chunk of storage holds when it is made.
const (
	pStoreBound = 3
	pChunkSets  = 8
)

// pStore is one kernel's P-matrix store.
type pStore struct {
	chunks [][][ns * ns]float64
	// cats is the category count the chunks are carved for; gen the
	// parameter generation the indexed sets hold matrices of.
	cats int
	gen  uint64
	sets []pEntry
	free []int32
	// index is an open-addressing table over the indexed sets' keys:
	// set+1, 0 for an empty cell, linear probing, deletion by backward
	// shift. Its length is a power of two at least twice len(sets).
	index []int32
	shift uint
	hand  int
	bound int
	// epoch counts finished programs: a set whose read equals epoch is
	// read by the program in flight.
	epoch uint64
}

// pEntry is one set of the store.
type pEntry struct {
	m    [][ns * ns]float64
	key  uint64 // Float64bits of the branch length, when indexed
	read uint64 // epoch of the last program that read the set
	// indexed: the set holds P(key) of generation gen; ref: it was read
	// by a hit since the clock hand last passed it.
	indexed, ref bool
}

// newPStore returns the store of a kernel whose tree has edges edges.
func newPStore(edges int) pStore {
	return pStore{bound: pStoreBound * max(edges, 1), epoch: 1}
}

// reset empties the index for a new generation, re-carving the chunks
// when the category count changed, and reports whether a set was
// indexed. A set the program in flight reads stays out of the free list
// (the sweep takes it back once the program is finished). Parameters —
// and with them the category count — change only between programs, so
// a re-carve never moves a set a staged operation points to.
func (s *pStore) reset(cats int) bool {
	was := false
	clear(s.index)
	if cats != s.cats {
		s.cats = cats
		for i := range s.sets {
			was = was || s.sets[i].indexed
		}
		s.sets, s.free, s.hand = s.sets[:0], s.free[:0], 0
		for _, c := range s.chunks {
			s.carve(c)
		}
		s.grow()
		return was
	}
	s.free = s.free[:0]
	for i := range s.sets {
		e := &s.sets[i]
		was = was || e.indexed
		e.indexed, e.ref = false, false
		if e.read != s.epoch {
			s.free = append(s.free, int32(i))
		}
	}
	return was
}

// carve appends the sets chunk c holds at the current category count,
// free, and returns how many.
func (s *pStore) carve(c [][ns * ns]float64) int {
	n := 0
	for off := 0; off+s.cats <= len(c); off += s.cats {
		s.free = append(s.free, int32(len(s.sets)))
		s.sets = append(s.sets, pEntry{m: c[off : off+s.cats : off+s.cats]})
		n++
	}
	return n
}

// take returns a set to fill and the number of sets carved from new
// storage to find it: a free one; else, at the bound, one the clock
// sweep recycles; else a set of a new chunk.
func (s *pStore) take() (int32, int) {
	if i, ok := s.pop(); ok {
		return i, 0
	}
	if len(s.sets) >= s.bound {
		// Two turns: the first may only clear second chances.
		for range 2 * len(s.sets) {
			i := s.hand
			if s.hand++; s.hand == len(s.sets) {
				s.hand = 0
			}
			e := &s.sets[i]
			if e.read == s.epoch {
				continue
			}
			if e.ref {
				e.ref = false
				continue
			}
			if e.indexed {
				s.unindex(int32(i))
			}
			return int32(i), 0
		}
	}
	chunk := make([][ns * ns]float64, pChunkSets*s.cats)
	s.chunks = append(s.chunks, chunk)
	n := s.carve(chunk)
	s.grow()
	i, _ := s.pop()
	return i, n
}

// pop takes a set from the free list.
func (s *pStore) pop() (int32, bool) {
	n := len(s.free)
	if n == 0 {
		return 0, false
	}
	i := s.free[n-1]
	s.free = s.free[:n-1]
	return i, true
}

// read marks set i read by the program in flight and returns its
// matrices; hit gives it a second chance.
func (s *pStore) read(i int32, hit bool) [][ns * ns]float64 {
	e := &s.sets[i]
	e.read = s.epoch
	if hit {
		e.ref = true
	}
	return e.m
}

// finish ends the program in flight: its sets may be recycled.
func (s *pStore) finish() { s.epoch++ }

// home is key's first index cell.
func (s *pStore) home(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> s.shift) }

// find returns the set indexed under key, −1 when there is none.
func (s *pStore) find(key uint64) int32 {
	if len(s.index) == 0 {
		return -1
	}
	mask := len(s.index) - 1
	for j := s.home(key); ; j = (j + 1) & mask {
		v := s.index[j]
		if v == 0 {
			return -1
		}
		if s.sets[v-1].key == key {
			return v - 1
		}
	}
}

// insert indexes set i under key.
func (s *pStore) insert(i int32, key uint64) {
	e := &s.sets[i]
	e.key, e.indexed, e.ref = key, true, false
	s.place(i)
}

func (s *pStore) place(i int32) {
	mask := len(s.index) - 1
	j := s.home(s.sets[i].key)
	for s.index[j] != 0 {
		j = (j + 1) & mask
	}
	s.index[j] = i + 1
}

// unindex removes set i from the index, shifting back the entries of its
// probe run that may no longer be reachable.
func (s *pStore) unindex(i int32) {
	s.sets[i].indexed = false
	mask := len(s.index) - 1
	j := s.home(s.sets[i].key)
	for s.index[j] != i+1 {
		j = (j + 1) & mask
	}
	for {
		s.index[j] = 0
		k := j
		for {
			k = (k + 1) & mask
			v := s.index[k]
			if v == 0 {
				return
			}
			// The entry at k may move to j unless its home lies
			// cyclically in (j, k].
			h := s.home(s.sets[v-1].key)
			if (j < k && (h <= j || h > k)) || (j > k && h <= j && h > k) {
				s.index[j] = v
				j = k
				break
			}
		}
	}
}

// grow keeps the index at least twice as long as the set list,
// re-placing the indexed sets when it grows.
func (s *pStore) grow() {
	if len(s.index) >= 2*len(s.sets) {
		return
	}
	n, shift := 16, uint(60)
	for n < 2*len(s.sets) {
		n, shift = 2*n, shift-1
	}
	s.index, s.shift = make([]int32, n), shift
	for i := range s.sets {
		if s.sets[i].indexed {
			s.place(int32(i))
		}
	}
}
