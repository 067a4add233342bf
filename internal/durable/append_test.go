package durable

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// journalHookFS is a MemFS whose journal handles pass through wrap, so a
// test can observe or stall the journal's writes and fsyncs while
// checkpoints keep MemFS semantics.
type journalHookFS struct {
	*MemFS
	wrap func(File) File
}

func (h journalHookFS) Create(p string) (File, error) {
	f, err := h.MemFS.Create(p)
	if err != nil || !strings.HasSuffix(p, ".journal") {
		return f, err
	}
	return h.wrap(f), nil
}

// attachedStore opens a store over fs with stream "s" attached at seq 1.
func attachedStore(t testing.TB, fs FS) *Store {
	t.Helper()
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Meta: StreamMeta{Name: "s"}, Snapshot: countSnapshot(0)}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return st
}

// discardFile drops journal bytes after counting them, so an append
// benchmark measures the store rather than MemFS's growing buffer.
type discardFile struct {
	File
	written *atomic.Int64
}

func (d discardFile) Write(p []byte) (int, error) {
	d.written.Add(int64(len(p)))
	return len(p), nil
}

func discardingFS(written *atomic.Int64) FS {
	return journalHookFS{MemFS: NewMemFS(), wrap: func(f File) File { return discardFile{f, written} }}
}

// BenchmarkStoreAppend frames one 256-point, dim-4 batch per op onto a
// journal: the per-batch durability cost on the ingest path.
func BenchmarkStoreAppend(b *testing.B) {
	const n, dim = 256, 4
	var written atomic.Int64
	st := attachedStore(b, discardingFS(&written))
	pts := benchPoints(n, dim)
	written.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append("s", pts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pt")
	b.ReportMetric(float64(written.Load())/float64(b.N*n), "B/pt")
}

// TestAppendSteadyStateAllocatesNothing: once the chain's buffer has grown
// to the batch size, framing a batch allocates nothing.
func TestAppendSteadyStateAllocatesNothing(t *testing.T) {
	var written atomic.Int64
	st := attachedStore(t, discardingFS(&written))
	pts := benchPoints(256, 4)
	if err := st.Append("s", pts, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := st.Append("s", pts, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per batch, want 0", allocs)
	}
}

// gatedFile stalls the first Sync after arming on a channel and fails
// Syncs while failing is set. It flags a Sync that starts after Close, or
// whose file is closed while it is in flight.
type gatedFile struct {
	File
	armed, failing *atomic.Bool
	entered        chan<- struct{}
	release        <-chan struct{}
	closed         atomic.Bool
	lateSync       *atomic.Bool
}

var errSyncInjected = errors.New("injected fsync failure")

func (g *gatedFile) Sync() error {
	if g.closed.Load() {
		g.lateSync.Store(true)
	}
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
		if g.closed.Load() {
			g.lateSync.Store(true)
		}
	}
	if g.failing.Load() {
		return errSyncInjected
	}
	return g.File.Sync()
}

func (g *gatedFile) Close() error {
	g.closed.Store(true)
	return g.File.Close()
}

type gate struct {
	fs               journalHookFS
	armed, failing   atomic.Bool
	lateSync         atomic.Bool
	entered, release chan struct{}
}

func newGate() *gate {
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	g.fs = journalHookFS{MemFS: NewMemFS(), wrap: func(f File) File {
		return &gatedFile{File: f, armed: &g.armed, failing: &g.failing,
			entered: g.entered, release: g.release, lateSync: &g.lateSync}
	}}
	return g
}

// recoveredCount reboots fs after a crash and returns how many points the
// store recovers for stream "s".
func recoveredCount(t *testing.T, m *MemFS) uint64 {
	t.Helper()
	m.Crash()
	m.Reboot()
	st, err := Open(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover: %d streams, err %v", len(recs), err)
	}
	return tailCount(t, recs[0])
}

// TestAppendProceedsDuringSync: the journal fsync runs outside the append
// lock, so an Append issued while a Sync is blocked in fsync completes,
// and the loss bound holds: what was appended before the Sync began is
// durable when it returns, and the next Sync covers the rest.
func TestAppendProceedsDuringSync(t *testing.T) {
	g := newGate()
	st := attachedStore(t, g.fs)
	if err := st.Append("s", makePoints(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- st.Sync() }()
	<-g.entered
	appended := make(chan error, 1)
	go func() { appended <- st.Append("s", makePoints(2, 3), nil) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("Append during Sync: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Append blocked behind an in-flight fsync")
	}
	close(g.release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if got := recoveredCount(t, g.fs.MemFS); got != 5 {
		t.Fatalf("recovered %d points, want 5", got)
	}
}

// TestSyncFailureKeepsJournalDirty: a failed fsync re-marks the journal,
// so the next Sync retries it instead of treating the appends as durable.
func TestSyncFailureKeepsJournalDirty(t *testing.T) {
	g := newGate()
	st := attachedStore(t, g.fs)
	if err := st.Append("s", makePoints(0, 4), nil); err != nil {
		t.Fatal(err)
	}
	g.failing.Store(true)
	if err := st.Sync(); !errors.Is(err, errSyncInjected) {
		t.Fatalf("Sync error = %v, want the injected failure", err)
	}
	g.failing.Store(false)
	if err := st.Sync(); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
	if got := recoveredCount(t, g.fs.MemFS); got != 4 {
		t.Fatalf("recovered %d points, want 4", got)
	}
}

// TestJournalNotClosedUnderInFlightSync: Rotate, Remove and Close wait
// for an in-flight fsync instead of closing the journal underneath it.
func TestJournalNotClosedUnderInFlightSync(t *testing.T) {
	for name, cut := range map[string]func(*Store) error{
		"rotate": func(st *Store) error { _, err := st.Rotate("s"); return err },
		"remove": func(st *Store) error { return st.Remove("s") },
		"close":  func(st *Store) error { return st.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			g := newGate()
			st := attachedStore(t, g.fs)
			if err := st.Append("s", makePoints(0, 2), nil); err != nil {
				t.Fatal(err)
			}
			g.armed.Store(true)
			synced := make(chan error, 1)
			go func() { synced <- st.Sync() }()
			<-g.entered
			cutDone := make(chan error, 1)
			go func() { cutDone <- cut(st) }()
			select {
			case <-cutDone:
				close(g.release)
				t.Fatalf("%s finished while an fsync was in flight", name)
			case <-time.After(100 * time.Millisecond):
			}
			close(g.release)
			if err := <-synced; err != nil {
				t.Fatalf("Sync: %v", err)
			}
			select {
			case err := <-cutDone:
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s still blocked after the fsync finished", name)
			}
			if g.lateSync.Load() {
				t.Fatal("journal closed while its fsync was in flight")
			}
		})
	}
}
