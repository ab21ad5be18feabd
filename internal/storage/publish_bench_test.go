package storage_test

import (
	"encoding/binary"
	"testing"

	"dbproc/internal/btree"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// BenchmarkPublishGC times one MVCC update epoch over a bulk-loaded
// 100k-tuple B-tree (100-byte records, 4000-byte pages, 20-byte index
// entries): begin the epoch, delete and re-insert one record, flush,
// Publish, GCVersions. It is the per-commit storage cost the engine pays
// under its commit mutex plus the version GC that follows.
func BenchmarkPublishGC(b *testing.B) {
	const n = 100_000
	p := storage.NewPager(storage.NewDisk(4000), metric.NewMeter(metric.DefaultCosts()))
	p.SetCharging(false)
	keyOf := func(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, 100)
		binary.LittleEndian.PutUint64(recs[i], uint64(i))
	}
	tr := btree.BulkLoad(p, 100, 20, keyOf, recs)
	d := p.Disk()
	d.EnableMVCC()
	p.SetEpoch(true)
	rec := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i*7919) % n
		binary.LittleEndian.PutUint64(rec, k)
		p.BeginOp()
		d.BeginEpoch()
		tr.Delete(p, k)
		tr.Insert(p, rec)
		p.Flush()
		d.Publish(uint64(i) + 1)
		d.GCVersions()
	}
}
