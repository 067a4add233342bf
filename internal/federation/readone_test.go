package federation

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"biasedres/internal/client"
)

// Single-replica reads: a managed stream created through the coordinator
// is read from one vouched replica per shard, and every doubt about that
// replica sends the read back to the all-replica, max-T race.

// peerCalls sums biasedres_fed_peer_requests_total over every peer.
func peerCalls(co *Coordinator) (n uint64) {
	for _, p := range co.peerList() {
		n += co.peerReqs.With(p.addr).Value()
	}
	return n
}

// fallbacks reads biasedres_fed_replica_read_fallbacks_total{reason}.
func fallbacks(co *Coordinator, reason string) uint64 {
	return co.readFallbacks.With(reason).Value()
}

func createAndSeed(t *testing.T, fedURL string, shards, replicas, n int) {
	t.Helper()
	if status, body := fedDo(t, http.MethodPut, fedURL+"/streams/s", managedCfg(shards, replicas)); status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	if status, _ := fedDo(t, http.MethodPost, fedURL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}
}

// nodeAt returns the node listening at a peer address.
func nodeAt(t *testing.T, nodes []*node, addr string) *node {
	t.Helper()
	for _, n := range nodes {
		if n.ts.URL == addr {
			return n
		}
	}
	t.Fatalf("no node at %s", addr)
	return nil
}

// TestSingleReplicaReadSteadyState: with every replica vouched and
// healthy, a query costs exactly one peer request per shard, a sample
// read too, nothing falls back, and the count stays exact.
func TestSingleReplicaReadSteadyState(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	const shards, n, queries = 2, 800, 20
	createAndSeed(t, fed.URL, shards, 2, n)

	before := peerCalls(co)
	for i := 0; i < queries; i++ {
		if est, body := mustCount(t, fed.URL, "s", 0); est != n {
			t.Fatalf("query %d: count %v, want exactly %d", i, est, n)
		} else {
			wantShards(t, body, shards, shards, false)
		}
	}
	if got := peerCalls(co) - before; got != shards*queries {
		t.Fatalf("%d queries cost %d peer requests, want %d (one per shard)", queries, got, shards*queries)
	}

	before = peerCalls(co)
	status, body := fedGet(t, fed.URL+"/streams/s/sample")
	if status != http.StatusOK || len(body["points"].([]any)) != n {
		t.Fatalf("sample: status %d, %d points, want %d", status, len(body["points"].([]any)), n)
	}
	if got := peerCalls(co) - before; got != shards {
		t.Fatalf("sample cost %d peer requests, want %d", got, shards)
	}
	for _, reason := range []string{"stale", "unvouched", "error", "silent"} {
		if f := fallbacks(co, reason); f != 0 {
			t.Fatalf("steady state fell back %d times for %q", f, reason)
		}
	}
	if d := co.dedupDropped.Value(); d != 0 {
		t.Fatalf("steady state dropped %d duplicate answers, want 0", d)
	}
}

// TestRevivedReplicaNeverSingleRead: a replica swept unhealthy while
// writes went on misses acknowledged points. Once it is back and healthy
// again it must never be the single read — it leaves the vouched set for
// good — and the count stays exact.
func TestRevivedReplicaNeverSingleRead(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	const n, during = 400, 60
	createAndSeed(t, fed.URL, 2, 2, n)
	ctx := context.Background()

	// Shard 0's sticky choice (rank 0 of its placement) is the victim, so
	// the test shows the read moving off it.
	victimAddr := co.placement("s", 0, 2)[0].addr
	victim := nodeAt(t, nodes, victimAddr)
	if est, _ := mustCount(t, fed.URL, "s", 0); est != n {
		t.Fatalf("baseline count %v, want %d", est, n)
	}
	victim.down.Store(true)
	co.Sweep(ctx)
	co.Sweep(ctx)
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(during)}); status != http.StatusOK {
		t.Fatal("ingest during outage failed")
	}
	victim.down.Store(false)
	co.Sweep(ctx)
	co.Sweep(ctx)
	if !co.peers[victimAddr].isHealthy() {
		t.Fatal("revived replica not healthy after two sweeps")
	}

	fs, _ := co.lookupFed("s")
	for shard := range fs.track {
		fs.mu.Lock()
		vouched := fs.track[shard].vouched[victimAddr]
		fs.mu.Unlock()
		if vouched {
			t.Fatalf("shard %d still vouches for the replica that missed writes", shard)
		}
	}
	before := co.peerReqs.With(victimAddr).Value()
	for i := 0; i < 10; i++ {
		if est, _ := mustCount(t, fed.URL, "s", 0); est != n+during {
			t.Fatalf("query %d after revival: count %v, want exactly %d", i, est, n+during)
		}
	}
	if got := co.peerReqs.With(victimAddr).Value() - before; got != 0 {
		t.Fatalf("stale revived replica was asked %d times, want 0", got)
	}
}

// TestAdoptedStreamReadsEveryReplica: a coordinator that learned the
// stream from peer hints has no write history for it, so every read asks
// every replica (counted as unvouched) and keeps the max-T answer.
func TestAdoptedStreamReadsEveryReplica(t *testing.T) {
	nodes := startNodes(t, 3)
	cfg := testCfg()
	cfg.Replication = 2
	_, fed1 := startCoordinator(t, nodes, cfg)
	const shards, replicas, n = 2, 2, 500
	createAndSeed(t, fed1.URL, shards, replicas, n)

	co2, fed2 := startCoordinator(t, nodes, cfg)
	if _, ok := co2.lookupFed("s"); !ok {
		t.Fatal("second coordinator did not adopt the hinted stream")
	}
	before := peerCalls(co2)
	if est, _ := mustCount(t, fed2.URL, "s", 0); est != n {
		t.Fatalf("adopted count %v, want %d", est, n)
	}
	if got := peerCalls(co2) - before; got != shards*replicas {
		t.Fatalf("adopted read cost %d peer requests, want %d (every replica)", got, shards*replicas)
	}
	if f := fallbacks(co2, "unvouched"); f != shards {
		t.Fatalf("unvouched fallbacks = %d, want %d", f, shards)
	}
}

// TestOutOfWindowAnswerFallsBack: a single-read answer whose T is below
// the acknowledged floor (the replica lost points) or above what this
// coordinator routed (someone else wrote to it) is not used; the read
// falls back to the all-replica race.
func TestOutOfWindowAnswerFallsBack(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	const n = 400
	createAndSeed(t, fed.URL, 2, 2, n)
	cfg := managedCfg(2, 2).StreamConfig

	// Below the floor: shard 0's sticky replica loses its data behind the
	// coordinator's back and comes back empty. The race answers from the
	// sibling, so the count stays exact.
	lost := nodeAt(t, nodes, co.placement("s", 0, 2)[0].addr)
	if err := lost.c.DeleteStream(shardStream("s", 0)); err != nil {
		t.Fatal(err)
	}
	if err := lost.c.CreateStream(shardStream("s", 0), cfg); err != nil {
		t.Fatal(err)
	}
	if est, _ := mustCount(t, fed.URL, "s", 0); est != n {
		t.Fatalf("count with an emptied replica %v, want exactly %d", est, n)
	}
	if f := fallbacks(co, "stale"); f != 1 {
		t.Fatalf("stale fallbacks after T < acked = %d, want 1", f)
	}

	// Above the ceiling: points pushed straight to shard 1's sticky
	// replica, as a second coordinator would. The race keeps the most
	// advanced answer, which includes them. Shard 0's emptied replica is
	// still vouched (no write since) and falls back again.
	extra := nodeAt(t, nodes, co.placement("s", 1, 2)[1%2].addr)
	if _, err := extra.c.Push(shardStream("s", 1), testPoints(10)); err != nil {
		t.Fatal(err)
	}
	if est, _ := mustCount(t, fed.URL, "s", 0); est != n+10 {
		t.Fatalf("count with a foreign write %v, want %d", est, n+10)
	}
	if f := fallbacks(co, "stale"); f != 3 {
		t.Fatalf("stale fallbacks after T > routed = %d, want 3", f)
	}
}

// TestSingleReadErrorAndSilenceFallBack: a vouched replica that fails
// (503 before any sweep notices) or stays silent past HedgeDelay costs a
// fallback, counted by reason, and never a wrong or partial answer.
func TestSingleReadErrorAndSilenceFallBack(t *testing.T) {
	pnodes := startProxiedNodes(t, 3)
	co, fedURL := startProxiedCoordinator(t, pnodes, failoverCfg())
	const n = 400
	seedFailoverStream(t, fedURL, "s", n)

	sticky := co.placement("s", 0, 2)[0].addr
	var victim *proxiedNode
	for _, pn := range pnodes {
		if pn.px.URL() == sticky {
			victim = pn
		}
	}
	if victim == nil {
		t.Fatalf("no proxied node at %s", sticky)
	}

	victim.down.Store(true)
	est, body := mustCount(t, fedURL, "s", 0)
	if est != n {
		t.Fatalf("count with the sticky replica failing %v, want exactly %d", est, n)
	}
	wantShards(t, body, 2, 2, false)
	if fallbacks(co, "error") == 0 {
		t.Fatal("a failing single read did not count an error fallback")
	}
	victim.down.Store(false)

	hedges := co.hedges.Value()
	victim.blackhole()
	est, body = mustCount(t, fedURL, "s", 0)
	if est != n {
		t.Fatalf("count with the sticky replica silent %v, want exactly %d", est, n)
	}
	wantShards(t, body, 2, 2, false)
	if fallbacks(co, "silent") == 0 || co.hedges.Value() == hedges {
		t.Fatalf("a silent single read counted %d silent fallbacks and %d hedges",
			fallbacks(co, "silent"), co.hedges.Value()-hedges)
	}
	victim.heal()
}

// TestConcurrentReadsSeeAcknowledgedWrites: with writers and readers
// running at once, every count includes every point acknowledged before
// the read began and nothing that was not yet sent when it ended — the
// guarantee the vouched set and the [acked, routed] window give.
func TestConcurrentReadsSeeAcknowledgedWrites(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	const seed, writers, batches, batch = 200, 2, 15, 10
	createAndSeed(t, fed.URL, 2, 2, seed)
	fc, err := client.New(fed.URL)
	if err != nil {
		t.Fatal(err)
	}
	var sent, acked atomic.Int64
	sent.Store(seed)
	acked.Store(seed)

	done := make(chan struct{})
	var wg, readers sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				sent.Add(batch)
				if _, err := fc.Push("s", testPoints(batch)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				acked.Add(batch)
			}
		}()
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				est, _, err := fc.Count("s", 0)
				ceil := sent.Load()
				if err != nil || est < float64(floor) || est > float64(ceil) {
					errs <- fmt.Errorf("count %v (err %v) outside [%d, %d]", est, err, floor, ceil)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if est, _ := mustCount(t, fed.URL, "s", 0); est != seed+writers*batches*batch {
		t.Fatalf("final count %v, want %d", est, seed+writers*batches*batch)
	}
	if f := fallbacks(co, "stale") + fallbacks(co, "unvouched"); f != 0 {
		t.Fatalf("%d reads fell back without any fault", f)
	}
}
