package storage

import "slices"

// chunkSize is the number of entries per ChunkTable chunk: the unit a
// mutation copies when it first touches a part a published directory
// shares.
const chunkSize = 64

// ChunkTable is a copy-on-write table of T indexed by small non-negative
// ints (page ids, bucket numbers), stored as an index of fixed-size chunks.
// Each chunk and the index itself carry the directory generation that owns
// them (DirVersions.Gen). Copying a ChunkTable value shares every chunk, so
// a published directory copy costs one struct copy; Mut then copies the
// index and a chunk the first time the live directory writes them in a
// newer generation, leaving the published copy untouched. A publish and
// the epoch before it therefore cost O(chunks written), not O(entries).
//
// A ChunkTable is not synchronized: only the single directory writer
// calls Mut, and published copies are read-only.
type ChunkTable[T any] struct {
	index []*tableChunk[T]
	gen   uint64 // generation that owns index
}

type tableChunk[T any] struct {
	gen  uint64
	vals [chunkSize]T
}

// Get returns entry i, or the zero T when it was never written.
func (t *ChunkTable[T]) Get(i int) T {
	if ci := i / chunkSize; ci < len(t.index) {
		if c := t.index[ci]; c != nil {
			return c.vals[i%chunkSize]
		}
	}
	var zero T
	return zero
}

// Mut returns entry i for writing in generation gen, growing the table as
// needed. The index and i's chunk are copied first when an older
// generation owns them, since a published copy may share them. The pointer
// stays valid until the generation advances.
func (t *ChunkTable[T]) Mut(i int, gen uint64) *T {
	if t.gen != gen {
		t.index = slices.Clone(t.index)
		t.gen = gen
	}
	ci := i / chunkSize
	if ci >= len(t.index) {
		t.index = append(t.index, make([]*tableChunk[T], ci+1-len(t.index))...)
	}
	c := t.index[ci]
	switch {
	case c == nil:
		c = &tableChunk[T]{gen: gen}
		t.index[ci] = c
	case c.gen != gen:
		cp := *c
		cp.gen = gen
		c = &cp
		t.index[ci] = c
	}
	return &c.vals[i%chunkSize]
}
