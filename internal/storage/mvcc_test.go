package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"dbproc/internal/metric"
)

// mvccRig is a small MVCC disk with one epoch-writer pager.
type mvccRig struct {
	d *Disk
	w *Pager
}

func newMVCCRig(t *testing.T, pageSize, pages int) (*mvccRig, []PageID) {
	t.Helper()
	d := NewDisk(pageSize)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = d.Alloc()
		d.WriteRaw(ids[i], pageBytes(pageSize, ids[i], 0))
	}
	d.EnableMVCC()
	w := NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	w.SetEpoch(true)
	return &mvccRig{d: d, w: w}, ids
}

// pageBytes is the content page id holds after the epoch at stamp wrote it
// (stamp 0: the pre-run contents).
func pageBytes(pageSize int, id PageID, stamp uint64) []byte {
	b := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint64(b[4:], stamp)
	return b
}

// epoch runs one update epoch writing ids and freeing frees, published at
// stamp.
func (r *mvccRig) epoch(stamp uint64, ids []PageID, frees ...PageID) {
	r.d.BeginEpoch()
	r.w.BeginOp()
	for _, id := range ids {
		copy(r.w.Overwrite(id), pageBytes(r.d.PageSize(), id, stamp))
	}
	for _, id := range frees {
		r.w.Drop(id)
		r.w.FreePage(id)
	}
	r.w.Flush()
	r.d.Publish(stamp)
}

// readAt reads id through a fresh operation of a pager pinned at snap.
func readAt(d *Disk, id PageID, snap uint64) []byte {
	p := NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	p.SetSnapshot(snap)
	return append([]byte(nil), p.Read(id)...)
}

func (r *mvccRig) listed() (chains, dirs int) {
	m := r.d.mvcc
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.gcChains), len(m.gcDirs)
}

// TestMVCCVisibilityPerStamp publishes a sequence of epochs, each writing a
// different subset of pages, and checks that a reader at every stamp sees
// for every page the version the last epoch at or below its stamp wrote.
func TestMVCCVisibilityPerStamp(t *testing.T) {
	const pageSize, nPages, epochs = 64, 6, 12
	r, ids := newMVCCRig(t, pageSize, nPages)
	writes := func(stamp uint64) []PageID { // epoch s writes page i when s%(i+1)==0
		var out []PageID
		for i, id := range ids {
			if stamp%uint64(i+1) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	var releases []func()
	for s := uint64(1); s <= epochs; s++ {
		snap, release := r.d.AcquireSnapshot()
		if snap != s-1 {
			t.Fatalf("snapshot before epoch %d at stamp %d", s, snap)
		}
		releases = append(releases, release)
		r.epoch(s, writes(s))
		r.d.GCVersions()
	}
	for snap := uint64(0); snap <= epochs; snap++ {
		for i, id := range ids {
			want := uint64(0)
			for s := uint64(1); s <= snap; s++ {
				if s%uint64(i+1) == 0 {
					want = s
				}
			}
			if got := readAt(r.d, id, snap); !bytes.Equal(got, pageBytes(pageSize, id, want)) {
				t.Errorf("page %d at stamp %d: read stamp %d, want %d", id, snap, binary.LittleEndian.Uint64(got[4:]), want)
			}
		}
	}
	for _, release := range releases {
		release()
	}
}

// TestMVCCGCKeepsVersionsSnapshotsNeed holds a snapshot while one page's
// chain is extended once and then left alone for many epochs and GC
// passes that only touch another page. The untouched chain stays on the
// work list and keeps the version the snapshot reads until the snapshot
// is released.
func TestMVCCGCKeepsVersionsSnapshotsNeed(t *testing.T) {
	const pageSize = 64
	r, ids := newMVCCRig(t, pageSize, 2)
	a, b := ids[0], ids[1]
	r.epoch(1, []PageID{a})
	snap, release := r.d.AcquireSnapshot()
	r.epoch(2, []PageID{a})
	r.d.GCVersions()
	for s := uint64(3); s < 20; s++ {
		r.epoch(s, []PageID{b})
		r.d.GCVersions()
		if got := readAt(r.d, a, snap); !bytes.Equal(got, pageBytes(pageSize, a, 1)) {
			t.Fatalf("after GC at stamp %d, snapshot %d reads page a at stamp %d, want 1", s, snap, binary.LittleEndian.Uint64(got[4:]))
		}
		if got := readAt(r.d, b, snap); !bytes.Equal(got, pageBytes(pageSize, b, 0)) {
			t.Fatalf("after GC at stamp %d, snapshot %d reads page b at stamp %d, want 0", s, snap, binary.LittleEndian.Uint64(got[4:]))
		}
	}
	release()
	r.d.GCVersions()
	if got := readAt(r.d, a, r.d.CommitStamp()); !bytes.Equal(got, pageBytes(pageSize, a, 2)) {
		t.Fatalf("page a at the commit stamp reads stamp %d, want 2", binary.LittleEndian.Uint64(got[4:]))
	}
}

// TestMVCCDeferredFreeWaitsForHorizon frees a page inside an epoch while a
// snapshot older than the free is registered: the page must not rejoin the
// allocator until the snapshot is released.
func TestMVCCDeferredFreeWaitsForHorizon(t *testing.T) {
	r, ids := newMVCCRig(t, 64, 3)
	victim := ids[2]
	_, release := r.d.AcquireSnapshot() // stamp 0
	r.epoch(1, []PageID{ids[0]}, victim)
	if n := r.d.GCVersions(); n != 0 {
		t.Fatalf("GC reclaimed %d pages while a stamp-0 snapshot is registered", n)
	}
	fresh := r.d.Alloc()
	if fresh == victim {
		t.Fatalf("Alloc returned page %d freed at stamp 1 while the horizon is 0", victim)
	}
	if got := readAt(r.d, victim, 0); !bytes.Equal(got, pageBytes(64, victim, 0)) {
		t.Fatalf("stamp-0 snapshot lost the freed page's contents")
	}
	release()
	if n := r.d.GCVersions(); n != 1 {
		t.Fatalf("GC reclaimed %d pages after release, want 1", n)
	}
	if got := r.d.Alloc(); got != victim {
		t.Fatalf("Alloc returned %d after the horizon passed the free, want %d", got, victim)
	}
}

// TestMVCCWorkListDrains grows the GC work list with chains and a
// directory while snapshots pin old versions, then releases every
// snapshot: one GC pass must prune every listed chain to a single version
// and empty both lists.
func TestMVCCWorkListDrains(t *testing.T) {
	r, ids := newMVCCRig(t, 64, 8)
	f := NewOrderedFile(r.d, 16)
	rec := make([]byte, 16)
	var releases []func()
	for s := uint64(1); s <= 10; s++ {
		_, release := r.d.AcquireSnapshot()
		releases = append(releases, release)
		r.d.BeginEpoch()
		r.w.BeginOp()
		f.Insert(r.w, s, rec)
		for _, id := range ids[:s%uint64(len(ids))+1] {
			copy(r.w.Overwrite(id), pageBytes(64, id, s))
		}
		r.w.Flush()
		r.d.Publish(s)
		r.d.GCVersions()
	}
	chains, dirs := r.listed()
	if chains == 0 || dirs != 1 {
		t.Fatalf("with snapshots held the work list has %d chains and %d dirs, want >0 and 1", chains, dirs)
	}
	for _, release := range releases {
		release()
	}
	r.d.GCVersions()
	if chains, dirs := r.listed(); chains != 0 || dirs != 0 {
		t.Fatalf("after releasing every snapshot the work list still has %d chains and %d dirs", chains, dirs)
	}
	for id, c := range r.d.mvcc.chains {
		if c.head.Load().prev.Load() != nil {
			t.Errorf("chain of page %d still holds more than one version", id)
		}
	}
	if v := f.dv.head.Load(); v.prev.Load() != nil {
		t.Errorf("ordered-file directory still holds more than one version")
	}
}

// TestMVCCNoChainReadWindow runs one snapshot reader over pages no epoch
// has written yet against a writer whose epochs each write one of those
// pages for the first time. Every read must return the bytes of the
// reader's stamp, including reads whose chain lookup found nothing just
// before the first write and its Publish replaced the live page. The
// reader hammers the pages at the writer's frontier, where that window is.
func TestMVCCNoChainReadWindow(t *testing.T) {
	const pageSize, nPages = 64, 2000
	r, ids := newMVCCRig(t, pageSize, nPages)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, id := range ids { // page i is written first at stamp i+1
			r.epoch(uint64(i)+1, []PageID{id})
		}
	}()
	p := NewPager(r.d, metric.NewMeter(metric.DefaultCosts()))
	var err error
	for err == nil && r.d.CommitStamp() < nPages {
		snap, release := r.d.AcquireSnapshot()
		p.SetSnapshot(snap)
		for j := uint64(0); j < 64 && err == nil; j++ {
			i := snap + j%4
			if i >= nPages {
				break
			}
			want := uint64(0)
			if i+1 <= snap {
				want = i + 1
			}
			p.BeginOp()
			if got := p.Read(ids[i]); !bytes.Equal(got, pageBytes(pageSize, ids[i], want)) {
				err = fmt.Errorf("snapshot %d read page %d at stamp %d, want %d", snap, ids[i], binary.LittleEndian.Uint64(got[4:]), want)
			}
		}
		release()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderedFileSnapshotIsolation takes a snapshot after every epoch of a
// run that splits ordered-file pages, rewrites records, deletes ranges
// (freeing pages), regrows into the gaps and finally rebuilds the file with
// Replace. Afterwards every snapshot must still see exactly its stamp's
// records through Get, Scan and ScanRange.
func TestOrderedFileSnapshotIsolation(t *testing.T) {
	r, _ := newMVCCRig(t, 64, 0) // 4 records per page
	f := NewOrderedFile(r.d, 16)
	rec := func(k, ver uint64) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, k)
		binary.LittleEndian.PutUint64(b[8:], ver)
		return b
	}
	type view struct {
		stamp   uint64
		release func()
		want    map[uint64]uint64
	}
	model := map[uint64]uint64{}
	var views []view
	maxPages, stamp := 0, uint64(0)
	epoch := func(mutate func(s uint64)) {
		stamp++
		r.d.BeginEpoch()
		r.w.BeginOp()
		mutate(stamp)
		r.w.Flush()
		r.d.Publish(stamp)
		s, release := r.d.AcquireSnapshot()
		views = append(views, view{s, release, maps.Clone(model)})
		r.d.GCVersions()
		maxPages = max(maxPages, f.Pages())
	}
	insert := func(k, s uint64) { f.Insert(r.w, k, rec(k, s)); model[k] = s }
	del := func(k uint64) {
		if !f.Delete(r.w, k) {
			t.Fatalf("delete of present key %d failed", k)
		}
		delete(model, k)
	}
	for lo := uint64(0); lo < 60; lo += 10 { // splits, inserting evens then odds
		epoch(func(s uint64) {
			for k := lo; k < lo+10; k++ {
				insert((k%2)*60+k, s)
			}
		})
	}
	for k := uint64(0); k < 120; k += 9 { // rewrites
		if _, ok := model[k]; ok {
			epoch(func(s uint64) { del(k); insert(k, s) })
		}
	}
	for lo := uint64(20); lo < 100; lo += 30 { // range deletes free pages
		epoch(func(uint64) {
			for k := lo; k < lo+15; k++ {
				if _, ok := model[k]; ok {
					del(k)
				}
			}
		})
	}
	shrunk := f.Pages()
	epoch(func(s uint64) { // regrow into the gaps
		for k := uint64(20); k < 35; k++ {
			insert(k, s)
		}
	})
	epoch(func(s uint64) { // rebuild
		var keys []uint64
		var recs [][]byte
		for k := uint64(200); k < 210; k++ {
			keys = append(keys, k)
			recs = append(recs, rec(k, s))
		}
		f.Replace(r.w, keys, recs)
		clear(model)
		for _, k := range keys {
			model[k] = s
		}
	})
	if maxPages < 10 || shrunk >= maxPages {
		t.Fatalf("file peaked at %d pages and shrank to %d; want splits and frees", maxPages, shrunk)
	}

	p := NewPager(r.d, metric.NewMeter(metric.DefaultCosts()))
	for _, v := range views {
		p.SetSnapshot(v.stamp)
		for k := uint64(0); k < 220; k++ {
			p.BeginOp()
			got, ok := f.Get(p, k)
			ver, wantOK := v.want[k]
			if ok != wantOK || ok && !bytes.Equal(got, rec(k, ver)) {
				t.Fatalf("snapshot %d Get(%d) = (%v, %v), want version %d present %v", v.stamp, k, got, ok, ver, wantOK)
			}
		}
		var keys []uint64
		for k := range v.want {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, rg := range [][2]uint64{{0, ^uint64(0)}, {15, 70}, {101, 205}} {
			p.BeginOp()
			var got, want []string
			visit := func(k uint64, b []byte) bool {
				got = append(got, fmt.Sprint(k, "@", binary.LittleEndian.Uint64(b[8:])))
				return true
			}
			if rg[1] == ^uint64(0) {
				f.Scan(p, visit)
			} else {
				f.ScanRange(p, rg[0], rg[1], visit)
			}
			for _, k := range keys {
				if k >= rg[0] && k <= rg[1] {
					want = append(want, fmt.Sprint(k, "@", v.want[k]))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("snapshot %d scan %v = %v, want %v", v.stamp, rg, got, want)
			}
		}
		v.release()
	}
}
