// Package hashidx implements a static hashed primary index, the access
// method of relations R2 and R3 in the paper: records are stored in
// page-sized buckets selected by key modulo the bucket count, with
// overflow chains when a bucket page fills. An equality probe therefore
// touches one page in the well-sized case, so a batch of k random probes
// touches ~y(n, m, k) distinct pages — the quantity the cost model charges
// for index-nested-loop joins.
//
// A Table is bound to a Disk; every access method takes the calling
// session's Pager so concurrent sessions can probe one shared table while
// each charges its own meter. The live bucket directory is not internally
// synchronized — mutations are serialized by the engine's update locks,
// and snapshot readers probe an immutable published directory copy at
// their stamp instead (docs/MVCC.md). The bucket table is a copy-on-write
// storage.ChunkTable, so publishing a copy shares every chunk the update
// did not touch.
package hashidx

import (
	"fmt"
	"slices"

	"dbproc/internal/storage"
)

// KeyFunc extracts the hash key from a record's bytes.
type KeyFunc func(rec []byte) uint64

// Table is a static-hash file of fixed-size records.
type Table struct {
	disk    *storage.Disk
	recSize int
	perPage int
	keyOf   KeyFunc
	dir     hashDir
	dv      *storage.DirVersions
}

// hashDir is the table's in-memory directory: the bucket chains and the
// record count. The live copy is mutated in place (buckets through
// bucketW); published copies are immutable.
type hashDir struct {
	buckets    storage.ChunkTable[bucket]
	numBuckets int
	n          int
}

// bucket is one bucket's chain. A chunk copy shares pages with the
// published chunk, so pages is never written in place: every change
// assigns a fresh or capacity-clipped slice.
type bucket struct {
	pages []storage.PageID
	count int // records in this bucket across its chain
}

// New creates an empty hash file with the given number of primary buckets.
func New(disk *storage.Disk, recSize, numBuckets int, keyOf KeyFunc) *Table {
	perPage := disk.PageSize() / recSize
	if recSize <= 0 || perPage < 1 {
		panic(fmt.Sprintf("hashidx: record size %d does not fit page size %d", recSize, disk.PageSize()))
	}
	if numBuckets < 1 {
		panic("hashidx: need at least one bucket")
	}
	if keyOf == nil {
		panic("hashidx: nil KeyFunc")
	}
	t := &Table{
		disk:    disk,
		recSize: recSize,
		perPage: perPage,
		keyOf:   keyOf,
		dir:     hashDir{numBuckets: numBuckets},
	}
	t.dv = disk.RegisterDir(t.freezeDir)
	return t
}

// freezeDir returns the live directory as a published copy sharing every
// bucket chunk.
func (t *Table) freezeDir() any {
	d := t.dir
	return &d
}

// dirFor resolves the directory a reader should probe: the newest
// published copy at the pager's snapshot stamp, else the live directory.
func (t *Table) dirFor(pg *storage.Pager) *hashDir {
	if s, ok := pg.Snapshot(); ok {
		if d := t.dv.Lookup(s); d != nil {
			return d.(*hashDir)
		}
	}
	return &t.dir
}

// Len returns the number of records.
func (t *Table) Len() int { return t.dir.n }

// NumBuckets returns the number of primary buckets.
func (t *Table) NumBuckets() int { return t.dir.numBuckets }

// Pages returns the number of allocated bucket and overflow pages.
func (t *Table) Pages() int {
	total := 0
	for i := range t.dir.numBuckets {
		total += len(t.dir.buckets.Get(i).pages)
	}
	return total
}

// PerPage returns the blocking factor.
func (t *Table) PerPage() int { return t.perPage }

// bucketOf returns the number of key's bucket.
func (d *hashDir) bucketOf(key uint64) int {
	return int(key % uint64(d.numBuckets))
}

// bucketW returns live bucket i for mutation, copying its chunk first when
// a published directory shares it.
func (t *Table) bucketW(i int) *bucket {
	return t.dir.buckets.Mut(i, t.dv.Gen())
}

// Insert stores a record in its key's bucket, allocating an overflow page
// if the chain is full. Duplicate keys are allowed.
func (t *Table) Insert(pg *storage.Pager, rec []byte) {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("hashidx: record of %d bytes, want %d", len(rec), t.recSize))
	}
	t.dv.MarkDirty()
	b := t.bucketW(t.dir.bucketOf(t.keyOf(rec)))
	slot := b.count % t.perPage
	var buf []byte
	if slot == 0 && b.count == len(b.pages)*t.perPage {
		id := t.disk.Alloc()
		b.pages = append(slices.Clip(b.pages), id)
		buf = pg.Overwrite(id)
	} else {
		buf = pg.Update(b.pages[b.count/t.perPage])
	}
	copy(buf[slot*t.recSize:], rec)
	b.count++
	t.dir.n++
}

// Lookup returns a copy of the first record with the given key, reading
// the bucket chain until found.
func (t *Table) Lookup(pg *storage.Pager, key uint64) ([]byte, bool) {
	var out []byte
	t.LookupEach(pg, key, func(rec []byte) bool {
		out = make([]byte, t.recSize)
		copy(out, rec)
		return false
	})
	return out, out != nil
}

// LookupEach calls fn for every record with the given key until fn returns
// false. The rec slice aliases the page frame and is valid only during the
// call. Matching by key is the hash machinery itself and is not a charged
// predicate screen; callers charge C1 for the predicates they evaluate on
// the results.
func (t *Table) LookupEach(pg *storage.Pager, key uint64, fn func(rec []byte) bool) {
	d := t.dirFor(pg)
	b := d.buckets.Get(d.bucketOf(key))
	remaining := b.count
	for _, id := range b.pages {
		if remaining <= 0 {
			return
		}
		buf := pg.Read(id)
		limit := t.perPage
		if remaining < limit {
			limit = remaining
		}
		for s := 0; s < limit; s++ {
			rec := buf[s*t.recSize : (s+1)*t.recSize]
			if t.keyOf(rec) == key && !fn(rec) {
				return
			}
		}
		remaining -= limit
	}
}

// Delete removes the first record with the given key, reporting whether
// one was present. The vacated slot is filled by the bucket's last record;
// an emptied overflow page is freed.
func (t *Table) Delete(pg *storage.Pager, key uint64) bool {
	return t.deleteWhere(pg, key, func([]byte) bool { return true })
}

// DeleteExact removes the first record whose bytes equal rec entirely,
// reporting whether one was present — the safe delete when several records
// share a hash key.
func (t *Table) DeleteExact(pg *storage.Pager, rec []byte) bool {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("hashidx: record of %d bytes, want %d", len(rec), t.recSize))
	}
	return t.deleteWhere(pg, t.keyOf(rec), func(got []byte) bool {
		for i := range rec {
			if got[i] != rec[i] {
				return false
			}
		}
		return true
	})
}

func (t *Table) deleteWhere(pg *storage.Pager, key uint64, match func([]byte) bool) bool {
	t.dv.MarkDirty()
	bi := t.dir.bucketOf(key)
	b := t.dir.buckets.Get(bi)
	// Find the record's position in the chain.
	pos := -1
	remaining := b.count
scan:
	for pi, id := range b.pages {
		if remaining <= 0 {
			break
		}
		buf := pg.Read(id)
		limit := t.perPage
		if remaining < limit {
			limit = remaining
		}
		for s := 0; s < limit; s++ {
			r := buf[s*t.recSize : (s+1)*t.recSize]
			if t.keyOf(r) == key && match(r) {
				pos = pi*t.perPage + s
				break scan
			}
		}
		remaining -= limit
	}
	if pos < 0 {
		return false
	}
	last := b.count - 1
	if pos != last {
		lastBuf := pg.Read(b.pages[last/t.perPage])
		rec := make([]byte, t.recSize)
		copy(rec, lastBuf[(last%t.perPage)*t.recSize:])
		buf := pg.Update(b.pages[pos/t.perPage])
		copy(buf[(pos%t.perPage)*t.recSize:], rec)
	} else {
		// Still a write: the slot is cleared below.
		_ = pg.Update(b.pages[pos/t.perPage])
	}
	lb := pg.Update(b.pages[last/t.perPage])
	clear(lb[(last%t.perPage)*t.recSize : (last%t.perPage+1)*t.recSize])
	bw := t.bucketW(bi)
	bw.count--
	t.dir.n--
	if bw.count%t.perPage == 0 && len(bw.pages) > 0 && bw.count == (len(bw.pages)-1)*t.perPage {
		id := bw.pages[len(bw.pages)-1]
		bw.pages = slices.Clip(bw.pages[:len(bw.pages)-1])
		pg.Drop(id)
		pg.FreePage(id)
	}
	return true
}

// ScanAll visits every record in bucket order. The rec slice is valid only
// during the call.
func (t *Table) ScanAll(pg *storage.Pager, fn func(rec []byte) bool) {
	d := t.dirFor(pg)
	for i := range d.numBuckets {
		b := d.buckets.Get(i)
		remaining := b.count
		for _, id := range b.pages {
			if remaining <= 0 {
				break
			}
			buf := pg.Read(id)
			limit := t.perPage
			if remaining < limit {
				limit = remaining
			}
			for s := 0; s < limit; s++ {
				if !fn(buf[s*t.recSize : (s+1)*t.recSize]) {
					return
				}
			}
			remaining -= limit
		}
	}
}
