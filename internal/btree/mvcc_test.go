package btree

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// verRec is a 32-byte record carrying its key and the stamp of the epoch
// that last wrote it.
func verRec(key, ver uint64) []byte {
	r := make([]byte, 32)
	binary.LittleEndian.PutUint64(r, key)
	binary.LittleEndian.PutUint64(r[8:], ver)
	return r
}

func recKey(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }
func recVer(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[8:]) }

// view is a registered snapshot and the key → version map it must see.
type view struct {
	stamp   uint64
	release func()
	want    map[uint64]uint64
}

// TestSnapshotIsolationAcrossReshapes takes a snapshot after every epoch of
// a run that grows a small tree by leaf and internal splits up to several
// levels, rewrites records, deletes whole key ranges (cascading node
// frees) and finally empties it down to one record (collapsing the root).
// Afterwards every snapshot must still see exactly its stamp's records
// through Get and ScanRange.
func TestSnapshotIsolationAcrossReshapes(t *testing.T) {
	d := storage.NewDisk(256) // 8 records per leaf, fanout 16
	w := storage.NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	w.SetCharging(false)
	model := map[uint64]uint64{}
	var recs [][]byte
	for k := uint64(0); k < 128; k += 2 {
		recs = append(recs, verRec(k, 0))
		model[k] = 0
	}
	tr := BulkLoad(w, 32, 16, recKey, recs)
	d.EnableMVCC()
	w.SetEpoch(true)

	var views []view
	maxHeight, stamp := tr.Height(), uint64(0)
	epoch := func(mutate func(s uint64)) {
		stamp++
		d.BeginEpoch()
		w.BeginOp()
		mutate(stamp)
		w.Flush()
		d.Publish(stamp)
		s, release := d.AcquireSnapshot()
		views = append(views, view{s, release, maps.Clone(model)})
		d.GCVersions()
		maxHeight = max(maxHeight, tr.Height())
	}
	insert := func(k, s uint64) { tr.Insert(w, verRec(k, s)); model[k] = s }
	del := func(k uint64) {
		if !tr.Delete(w, k) {
			t.Fatalf("delete of present key %d failed", k)
		}
		delete(model, k)
	}
	for lo := uint64(1); lo < 600; lo += 40 { // splits: odd keys, then past the end
		epoch(func(s uint64) {
			for k := lo; k < lo+40; k += 2 {
				insert(k, s)
			}
		})
	}
	for k := uint64(0); k < 128; k += 16 { // rewrites
		epoch(func(s uint64) { del(k); insert(k, s) })
	}
	for lo := uint64(200); lo < 600; lo += 100 { // range deletes
		epoch(func(uint64) {
			for k := range model {
				if k >= lo && k < lo+100 {
					del(k)
				}
			}
		})
	}
	epoch(func(uint64) { // empty all but one record
		for k := range model {
			if k != 5 {
				del(k)
			}
		}
	})
	if maxHeight < 3 || tr.Height() != 1 {
		t.Fatalf("run reached height %d and ended at %d; want >= 3 and a collapsed root", maxHeight, tr.Height())
	}

	r := storage.NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	for _, v := range views {
		r.SetSnapshot(v.stamp)
		for k := uint64(0); k < 640; k++ {
			r.BeginOp()
			rec, ok := tr.Get(r, k)
			wantVer, wantOK := v.want[k]
			if ok != wantOK || ok && recVer(rec) != wantVer {
				t.Fatalf("snapshot %d Get(%d) = (ver %v, %v), want (ver %d, %v)", v.stamp, k, rec, ok, wantVer, wantOK)
			}
		}
		for _, rg := range [][2]uint64{{0, ^uint64(0)}, {50, 250}, {301, 333}} {
			r.BeginOp()
			var got, want []string
			tr.ScanRange(r, rg[0], rg[1], func(rec []byte) bool {
				got = append(got, fmt.Sprint(recKey(rec), "@", recVer(rec)))
				return true
			})
			var keys []uint64
			for k := range v.want {
				if k >= rg[0] && k <= rg[1] {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				want = append(want, fmt.Sprint(k, "@", v.want[k]))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("snapshot %d ScanRange%v = %v, want %v", v.stamp, rg, got, want)
			}
		}
		v.release()
	}
}

// TestPublishAllocsIndependentOfSize measures the allocations of one MVCC
// update epoch (delete and re-insert one record, publish, GC) on trees of
// 10k and 100k records. Publishing shares every directory chunk the
// epoch did not write, so the count must not grow with the tree; the
// small allowance covers the extra internal level the larger tree's
// descent fetches.
func TestPublishAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		p := storage.NewPager(storage.NewDisk(4000), metric.NewMeter(metric.DefaultCosts()))
		p.SetCharging(false)
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = make([]byte, 100)
			binary.LittleEndian.PutUint64(recs[i], uint64(i))
		}
		tr := BulkLoad(p, 100, 20, recKey, recs)
		d := p.Disk()
		d.EnableMVCC()
		p.SetEpoch(true)
		rec := make([]byte, 100)
		stamp := uint64(0)
		return testing.AllocsPerRun(50, func() {
			stamp++
			k := stamp * 7919 % uint64(n)
			binary.LittleEndian.PutUint64(rec, k)
			p.BeginOp()
			d.BeginEpoch()
			tr.Delete(p, k)
			tr.Insert(p, rec)
			p.Flush()
			d.Publish(stamp)
			d.GCVersions()
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	if large > small+4 {
		t.Fatalf("one update epoch allocates %.0f times at 100k records, %.0f at 10k", large, small)
	}
}
