package hashidx

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

func verRec(key, ver uint64) []byte {
	r := make([]byte, 16)
	binary.LittleEndian.PutUint64(r, key)
	binary.LittleEndian.PutUint64(r[8:], ver)
	return r
}

// TestSnapshotIsolationAcrossOverflow takes a snapshot after every epoch of
// a run that grows three buckets into long overflow chains, rewrites
// records in place, deletes most records again (freeing overflow pages)
// and regrows the chains. Afterwards every snapshot must still see exactly
// its stamp's records through LookupEach and ScanAll.
func TestSnapshotIsolationAcrossOverflow(t *testing.T) {
	d := storage.NewDisk(64) // 4 records per page
	w := storage.NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	tb := New(d, 16, 3, func(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) })
	d.EnableMVCC()
	w.SetEpoch(true)

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
		d.BeginEpoch()
		w.BeginOp()
		mutate(stamp)
		w.Flush()
		d.Publish(stamp)
		s, release := d.AcquireSnapshot()
		views = append(views, view{s, release, maps.Clone(model)})
		d.GCVersions()
		maxPages = max(maxPages, tb.Pages())
	}
	del := func(k uint64) {
		if !tb.DeleteExact(w, verRec(k, model[k])) {
			t.Fatalf("delete of present key %d failed", k)
		}
		delete(model, k)
	}
	for lo := uint64(0); lo < 90; lo += 10 {
		epoch(func(s uint64) {
			for k := lo; k < lo+10; k++ {
				tb.Insert(w, verRec(k, s))
				model[k] = s
			}
		})
	}
	for k := uint64(0); k < 90; k += 7 {
		epoch(func(s uint64) {
			del(k)
			tb.Insert(w, verRec(k, s))
			model[k] = s
		})
	}
	for lo := uint64(10); lo < 90; lo += 20 {
		epoch(func(uint64) {
			for k := lo; k < lo+20; k++ {
				del(k)
			}
		})
	}
	shrunk := tb.Pages()
	for lo := uint64(100); lo < 130; lo += 10 { // regrow the shrunk chains
		epoch(func(s uint64) {
			for k := lo; k < lo+10; k++ {
				tb.Insert(w, verRec(k, s))
				model[k] = s
			}
		})
	}
	if maxPages < 20 || shrunk > maxPages/2 || tb.Pages() <= shrunk {
		t.Fatalf("chains peaked at %d pages, shrank to %d and regrew to %d; want long chains that shrink and regrow", maxPages, shrunk, tb.Pages())
	}

	r := storage.NewPager(d, metric.NewMeter(metric.DefaultCosts()))
	for _, v := range views {
		r.SetSnapshot(v.stamp)
		for k := uint64(0); k < 140; k++ {
			r.BeginOp()
			var got []uint64
			tb.LookupEach(r, k, func(rec []byte) bool {
				got = append(got, binary.LittleEndian.Uint64(rec[8:]))
				return true
			})
			var want []uint64
			if ver, ok := v.want[k]; ok {
				want = []uint64{ver}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("snapshot %d LookupEach(%d) versions %v, want %v", v.stamp, k, got, want)
			}
		}
		r.BeginOp()
		var got, want []string
		tb.ScanAll(r, func(rec []byte) bool {
			got = append(got, fmt.Sprint(binary.LittleEndian.Uint64(rec), "@", binary.LittleEndian.Uint64(rec[8:])))
			return true
		})
		for k, ver := range v.want {
			want = append(want, fmt.Sprint(k, "@", ver))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot %d ScanAll = %v, want %v", v.stamp, got, want)
		}
		v.release()
	}
}
