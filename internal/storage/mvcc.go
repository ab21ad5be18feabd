// MVCC: single-writer multi-version concurrency control for the simulated
// disk, so snapshot readers never block behind the update in flight.
//
// The engine's canonical-order 2PL already serializes updates against each
// other (every update footprint takes the base relations exclusive), so at
// most one update epoch is ever open. That single-writer shape is the
// load-bearing simplification here, as in LMDB or SQLite's WAL: versioning
// only has to mediate one mutator against many lock-free readers.
//
// Two kinds of state are versioned:
//
//   - Page contents. The first epoch write to a page seeds a version chain
//     with the page's pre-epoch bytes at stamp 0; epoch writes then go to a
//     pending buffer invisible to readers, and Publish links the pending
//     bytes as the chain head stamped with the update's commit sequence
//     number (and copies them to the live page, which stays in sync with
//     the newest version for non-snapshot readers). A snapshot reader at
//     stamp S walks the chain for the newest version with stamp <= S; a
//     page with no chain has never been written by an epoch and its live
//     bytes are valid at every stamp.
//
//   - Directory state. The in-memory directories of the access methods
//     (B-tree meta table and root, hash bucket table, ordered-file page
//     list) are mutated in place by updates; readers cannot walk a live
//     directory that is being rewritten. Each structure registers a
//     DirVersions handle with a freeze function; epoch mutations mark the
//     handle dirty, and Publish freezes dirty directories as new immutable
//     heads. Directories are copy-on-write: a frozen copy shares every part
//     of the live one, each part carries the generation that owns it, and
//     a mutation copies a part the first time it touches it after a
//     freeze (ChunkTable, the ordered file's pages). Snapshot readers
//     resolve the directory the same way they resolve pages: newest
//     published copy with stamp <= S, falling back to the live directory
//     when the structure is unversioned (cache entry files mutated at
//     query time under their entry mutex) or MVCC is off.
//
// Pages freed inside an epoch are deferred: they rejoin the allocator only
// once the garbage-collection horizon (the oldest registered snapshot)
// passes the freeing update's stamp, since older directory snapshots may
// still name them. Publish puts every chain and directory it extends on a
// GC work list, and GCVersions prunes only the listed ones, so a commit
// and its GC cost what the epoch wrote, not the size of the database.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// version is one published, immutable version of a page's contents or of
// a directory, linked to the next older one.
type version[T any] struct {
	stamp uint64
	val   T
	prev  atomic.Pointer[version[T]]
}

// visible returns the newest version in the chain starting at v with
// stamp <= snap, or nil.
func visible[T any](v *version[T], snap uint64) *version[T] {
	for ; v != nil; v = v.prev.Load() {
		if v.stamp <= snap {
			return v
		}
	}
	return nil
}

// pruneBelow cuts the chain after the newest version at or below horizon:
// no registered snapshot can reach anything older.
func pruneBelow[T any](v *version[T], horizon uint64) {
	if v = visible(v, horizon); v != nil && v.prev.Load() != nil {
		v.prev.Store(nil)
	}
}

// pageChain is the per-page version list plus the epoch writer's private
// pending buffer. Only the (single) epoch writer touches pending; readers
// only load head and walk prev pointers.
type pageChain struct {
	id      PageID
	head    atomic.Pointer[version[[]byte]]
	pending []byte
	// listed marks the chain as on the GC work list (guarded by
	// mvccState.mu), so Publish lists it at most once.
	listed bool
}

// DirVersions is the version handle one in-memory directory registers with
// its Disk. The zero value is not usable; obtain handles via RegisterDir.
type DirVersions struct {
	disk      *Disk
	versioned bool
	freeze    func() any
	head      atomic.Pointer[version[any]]
	// gen is the generation the live directory owns; every publish
	// advances it. Only the directory's writer reads or advances it.
	gen    uint64
	dirty  bool
	listed bool // on the GC work list; guarded by mvccState.mu
}

// deferredFree is a batch of pages freed by the update that committed at
// stamp; they become reusable once the GC horizon reaches the stamp.
type deferredFree struct {
	stamp uint64
	ids   []PageID
}

// mvccState hangs off a Disk once EnableMVCC is called.
type mvccState struct {
	// mu guards the snapshot registry, the deferred-free list, the GC work
	// lists and the commit stamp's publication point.
	mu          sync.Mutex
	commitStamp atomic.Uint64
	active      map[uint64]int
	epoch       atomic.Bool

	// chMu guards the chains map header; chain contents are accessed via
	// atomics (published versions) or by the single epoch writer (pending).
	chMu   sync.RWMutex
	chains map[PageID]*pageChain

	// Epoch-writer private state: chains written and pages freed this
	// epoch, and directories dirtied this epoch. Only the session holding
	// the update footprint touches these.
	epochChains []*pageChain
	epochFrees  []PageID
	dirtyDirs   []*DirVersions

	deferred []deferredFree

	// GC work lists: chains and directories with more than one version,
	// or whose single version is newer than the horizon was at the last
	// GC. gcMu serializes GCVersions calls; the spare slices are the
	// previous pass's lists, reused to keep a pass allocation-free.
	gcMu                  sync.Mutex
	gcChains, spareChains []*pageChain
	gcDirs, spareDirs     []*DirVersions
}

// EnableMVCC switches the disk into multi-version mode: every registered
// versioned directory is published at stamp 0 so snapshot readers always
// find a consistent copy. Call it once, after bulk load and strategy
// preparation, before any concurrent access begins.
func (d *Disk) EnableMVCC() {
	if d.mvcc != nil {
		return
	}
	m := &mvccState{
		active: make(map[uint64]int),
		chains: make(map[PageID]*pageChain),
	}
	d.mvcc = m
	d.mu.RLock()
	dirs := append([]*DirVersions(nil), d.dirs...)
	d.mu.RUnlock()
	for _, dv := range dirs {
		if dv.versioned {
			dv.publish(0)
		}
	}
}

// MVCCEnabled reports whether the disk is in multi-version mode.
func (d *Disk) MVCCEnabled() bool { return d.mvcc != nil }

// CommitStamp returns the newest published version stamp (0 before any
// update publishes).
func (d *Disk) CommitStamp() uint64 {
	if d.mvcc == nil {
		return 0
	}
	return d.mvcc.commitStamp.Load()
}

// UpdateInFlight reports whether an update epoch is currently open. The
// cache layer's optimistic install check reads it.
func (d *Disk) UpdateInFlight() bool {
	return d.mvcc != nil && d.mvcc.epoch.Load()
}

// AcquireSnapshot registers a reader at the current commit stamp and
// returns the stamp plus a release function. The garbage-collection
// horizon never passes a registered snapshot.
func (d *Disk) AcquireSnapshot() (uint64, func()) {
	m := d.mvcc
	m.mu.Lock()
	s := m.commitStamp.Load()
	m.active[s]++
	m.mu.Unlock()
	return s, func() {
		m.mu.Lock()
		if m.active[s]--; m.active[s] == 0 {
			delete(m.active, s)
		}
		m.mu.Unlock()
	}
}

// BeginEpoch opens the update epoch. The caller must hold the update
// footprint (the engine's exclusive base-relation locks), which guarantees
// a single writer.
func (d *Disk) BeginEpoch() {
	if m := d.mvcc; m != nil {
		m.epoch.Store(true)
	}
}

// Publish stamps everything the open epoch wrote — pending page versions,
// dirty directories, deferred frees — with the update's commit sequence
// number and makes it visible: after the commit stamp advances, snapshots
// taken at or beyond stamp see the new versions, older snapshots keep the
// old ones. It costs O(pages and directory parts the epoch wrote). Call
// under the engine's commit mutex, which assigns the stamp.
func (d *Disk) Publish(stamp uint64) {
	m := d.mvcc
	if m == nil {
		return
	}
	for _, c := range m.epochChains {
		v := &version[[]byte]{stamp: stamp, val: c.pending}
		v.prev.Store(c.head.Load())
		c.head.Store(v)
		// Keep the live page in sync with the newest version so readers
		// without a snapshot (and the next epoch's first read) see it.
		d.WriteRaw(c.id, v.val)
		c.pending = nil
	}
	for _, dv := range m.dirtyDirs {
		dv.publish(stamp)
		dv.dirty = false
	}
	m.mu.Lock()
	// Listing happens after the heads are linked: a concurrent GC pass
	// that finds a listed chain's head unchanged may unlist it, and then
	// this pass lists it again (see GCVersions).
	for _, c := range m.epochChains {
		if !c.listed {
			c.listed = true
			m.gcChains = append(m.gcChains, c)
		}
	}
	for _, dv := range m.dirtyDirs {
		if !dv.listed {
			dv.listed = true
			m.gcDirs = append(m.gcDirs, dv)
		}
	}
	if len(m.epochFrees) > 0 {
		m.deferred = append(m.deferred, deferredFree{stamp: stamp, ids: m.epochFrees})
		m.epochFrees = nil
	}
	m.commitStamp.Store(stamp)
	m.mu.Unlock()
	m.epochChains = m.epochChains[:0]
	m.dirtyDirs = m.dirtyDirs[:0]
	m.epoch.Store(false)
}

// GCVersions prunes the listed version chains and directories and
// reclaims deferred frees below the horizon — the oldest registered
// snapshot (or the commit stamp when no reader is active). A chain or
// directory leaves the work list once it holds a single version at or
// below the horizon, so a pass costs O(versions published since the
// horizon last passed them). It returns the number of pages returned to
// the allocator. Safe to call concurrently with readers, with an open
// epoch and with itself; the engine wraps calls in the "mvcc:gc" lock so
// residual waits are attributable (see procdoctor).
func (d *Disk) GCVersions() int {
	m := d.mvcc
	if m == nil {
		return 0
	}
	m.gcMu.Lock()
	defer m.gcMu.Unlock()
	m.mu.Lock()
	horizon := m.commitStamp.Load()
	for s := range m.active {
		if s < horizon {
			horizon = s
		}
	}
	var ready []PageID
	rest := m.deferred[:0]
	for _, df := range m.deferred {
		if df.stamp <= horizon {
			ready = append(ready, df.ids...)
		} else {
			rest = append(rest, df)
		}
	}
	m.deferred = rest
	chains, dirs := m.gcChains, m.gcDirs
	m.gcChains, m.gcDirs = m.spareChains[:0], m.spareDirs[:0]
	m.mu.Unlock()

	if len(ready) > 0 {
		m.chMu.Lock()
		for _, id := range ready {
			delete(m.chains, id)
		}
		m.chMu.Unlock()
	}
	for _, c := range chains {
		pruneBelow(c.head.Load(), horizon)
	}
	for _, dv := range dirs {
		pruneBelow(dv.head.Load(), horizon)
	}

	// Unlist what is down to one version at or below the horizon. The
	// check reads the head under mu: a Publish that extended the chain
	// since the prune either already ran (the new head is above the
	// horizon, so the chain stays listed) or runs after and lists it anew.
	m.mu.Lock()
	for _, c := range chains {
		if v := c.head.Load(); v.stamp <= horizon && v.prev.Load() == nil {
			c.listed = false
		} else {
			m.gcChains = append(m.gcChains, c)
		}
	}
	for _, dv := range dirs {
		if v := dv.head.Load(); v == nil || v.stamp <= horizon && v.prev.Load() == nil {
			dv.listed = false
		} else {
			m.gcDirs = append(m.gcDirs, dv)
		}
	}
	m.mu.Unlock()
	m.spareChains, m.spareDirs = chains, dirs

	if len(ready) > 0 {
		d.mu.Lock()
		d.free = append(d.free, ready...)
		d.mu.Unlock()
	}
	return len(ready)
}

// RegisterDir registers an in-memory directory with the disk and returns
// its version handle. freeze must return an immutable copy of the live
// directory; it may share every part tagged with the handle's current Gen,
// because publishing advances Gen and the live directory then copies a
// part before mutating it. Structures register at construction; cache
// entry files that are rewritten at query time call Unversion on the
// handle instead.
func (d *Disk) RegisterDir(freeze func() any) *DirVersions {
	dv := &DirVersions{disk: d, versioned: true, freeze: freeze}
	d.mu.Lock()
	d.dirs = append(d.dirs, dv)
	d.mu.Unlock()
	if d.mvcc != nil {
		dv.publish(d.CommitStamp())
	}
	return dv
}

// Unversion excludes the directory from snapshotting: readers always see
// the live directory. Correct only for structures whose mutations are
// serialized against their readers by other means (the cache layer's
// per-entry mutexes).
func (dv *DirVersions) Unversion() {
	dv.versioned = false
	dv.head.Store(nil)
}

// Versioned reports whether the directory participates in snapshotting.
func (dv *DirVersions) Versioned() bool { return dv.versioned }

// Gen returns the generation the live directory owns. A directory part
// tagged with an older generation may be shared with a published copy and
// must be copied before it is mutated.
func (dv *DirVersions) Gen() uint64 { return dv.gen }

// MarkDirty records that the live directory was mutated inside the open
// update epoch, scheduling a fresh copy at Publish. No-op outside an
// epoch (bulk load, unversioned cache rewrites, MVCC off).
func (dv *DirVersions) MarkDirty() {
	if !dv.versioned {
		return
	}
	m := dv.disk.mvcc
	if m == nil || !m.epoch.Load() {
		return
	}
	if !dv.dirty {
		dv.dirty = true
		m.dirtyDirs = append(m.dirtyDirs, dv)
	}
}

// Lookup returns the newest published directory copy with stamp <= snap,
// or nil when the structure is unversioned (read the live directory).
func (dv *DirVersions) Lookup(snap uint64) any {
	if dv == nil || !dv.versioned {
		return nil
	}
	if v := visible(dv.head.Load(), snap); v != nil {
		return v.val
	}
	return nil
}

// publish freezes the live directory as the new head and advances the
// generation, so the next mutation copies what it touches.
func (dv *DirVersions) publish(stamp uint64) {
	v := &version[any]{stamp: stamp, val: dv.freeze()}
	dv.gen++
	v.prev.Store(dv.head.Load())
	dv.head.Store(v)
}

// chain returns the page's version chain, nil if no epoch has written it.
func (m *mvccState) chain(id PageID) *pageChain {
	m.chMu.RLock()
	c := m.chains[id]
	m.chMu.RUnlock()
	return c
}

// readAt copies the newest version of the page with stamp <= snap into
// dst. Pages without a chain have never been epoch-written: their live
// bytes are valid at every stamp.
func (d *Disk) readAt(id PageID, dst []byte, snap uint64) {
	m := d.mvcc
	c := m.chain(id)
	if c == nil {
		d.readInto(id, dst)
		// An epoch's first write to the page and its Publish can land
		// between the lookup and the live read, leaving newer bytes in
		// dst. The chain that write created is in the map before the
		// live page changes, and its stamp-0 version holds the bytes
		// every older snapshot must see.
		if c = m.chain(id); c == nil {
			return
		}
	}
	if v := visible(c.head.Load(), snap); v != nil {
		copy(dst, v.val)
		return
	}
	panic(fmt.Sprintf("storage: page %d has no version visible at snapshot %d", id, snap))
}

// readEpoch serves the epoch writer its own pending writes, falling back
// to the live page (which equals the newest published version).
func (d *Disk) readEpoch(id PageID, dst []byte) {
	if c := d.mvcc.chain(id); c != nil && c.pending != nil {
		copy(dst, c.pending)
		return
	}
	d.readInto(id, dst)
}

// writeEpoch stages a page write in the epoch's pending buffer, seeding
// the version chain with the pre-epoch contents on first touch.
func (d *Disk) writeEpoch(id PageID, data []byte) {
	if len(data) > d.pageSize {
		panic(fmt.Sprintf("storage: write of %d bytes exceeds page size %d", len(data), d.pageSize))
	}
	m := d.mvcc
	c := m.chain(id)
	if c == nil {
		base := &version[[]byte]{stamp: 0, val: make([]byte, d.pageSize)}
		d.readInto(id, base.val)
		c = &pageChain{id: id}
		c.head.Store(base)
		m.chMu.Lock()
		m.chains[id] = c
		m.chMu.Unlock()
	}
	if c.pending == nil {
		c.pending = make([]byte, d.pageSize)
		m.epochChains = append(m.epochChains, c)
	} else {
		clear(c.pending)
	}
	copy(c.pending, data)
}

// freeEpoch defers a page freed inside the epoch until the GC horizon
// passes the epoch's eventual stamp.
func (d *Disk) freeEpoch(id PageID) {
	m := d.mvcc
	d.mu.RLock()
	d.check(id)
	d.mu.RUnlock()
	m.epochFrees = append(m.epochFrees, id)
}
