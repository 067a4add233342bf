package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"biasedres/internal/core"
	"biasedres/internal/obs"
	"biasedres/internal/stream"
)

// ingestBatchBuckets are the batch-size histogram bounds: powers of two
// from a single point up to the largest batch a 64 MiB body can plausibly
// carry.
var ingestBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// ingestShard is the per-stream async ingest lane: a bounded queue of
// pre-validated, index-assigned batches drained by one worker goroutine.
// One worker per stream keeps arrival order — the samplers require points
// in order — while different streams ingest fully in parallel.
type ingestShard struct {
	ch chan []stream.Point
}

// startIngestShard attaches an ingest lane to ms and starts its worker.
// Called with the stream registered; the worker runs until the shard's
// channel is closed (stream deletion or server Close).
func (s *Server) startIngestShard(name string, ms *managedStream) {
	ms.shard = &ingestShard{ch: make(chan []stream.Point, s.ingestQueue)}
	s.ingestWG.Add(1)
	go s.runIngestShard(name, ms)
}

// runIngestShard drains one stream's queue. The global worker semaphore
// bounds how many shards apply batches simultaneously (the -ingest-workers
// flag), so thousands of idle streams cost goroutines but not CPU
// contention.
func (s *Server) runIngestShard(name string, ms *managedStream) {
	defer s.ingestWG.Done()
	for batch := range ms.shard.ch {
		s.ingestSem <- struct{}{}
		ms.mu.Lock()
		core.AddBatch(ms.sampler, batch)
		ms.snap.Invalidate()
		if s.durable != nil {
			// Journaled under ms.mu so append order matches apply order
			// and a concurrent checkpoint's journal cut (Rotate, also
			// under ms.mu) cleanly separates pre- from post-snapshot ops.
			s.appendJournal(name, batch, nil)
		}
		ms.mu.Unlock()
		// Model scoring runs on the worker inside the semaphore slot:
		// classification is CPU work and must respect -ingest-workers.
		s.observeModel(ms, batch)
		<-s.ingestSem
		ms.pending.Add(-int64(len(batch)))
		s.applied.With(name).Inc()
	}
}

// closeShard marks the stream closed and shuts its ingest lane down. Safe
// against concurrent enqueues: both the closed flag and the close happen
// under ms.qmu, and enqueues check the flag under the same lock.
func closeShard(ms *managedStream) {
	ms.qmu.Lock()
	defer ms.qmu.Unlock()
	if ms.closed {
		return
	}
	ms.closed = true
	if ms.shard != nil {
		close(ms.shard.ch)
	}
}

// Close shuts down the server's background work: every stream's ingest
// queue is closed and drained (points already accepted with 202 are
// applied; new ingest requests receive 503), and when durability is
// enabled the checkpointer stops, a final checkpoint of every stream is
// cut — leaving empty journals behind it — and the journals are closed.
// Safe to call when async ingest is disabled and safe to call more than
// once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Fail readiness first so load balancers and federation
		// coordinators stop routing here while the queues drain.
		s.ready.Store(false)
		s.mu.RLock()
		streams := make([]*managedStream, 0, len(s.streams))
		for _, ms := range s.streams {
			streams = append(streams, ms)
		}
		s.mu.RUnlock()
		for _, ms := range streams {
			closeShard(ms)
		}
		s.ingestWG.Wait()
		if s.retStop != nil {
			// Stop the retention sweep before the final checkpoint so the
			// shutdown cut is not raced by compactions.
			close(s.retStop)
			s.retWG.Wait()
		}
		if s.durable != nil {
			close(s.durStop)
			s.durWG.Wait()
			// Every queue is drained, so this checkpoint captures every
			// acknowledged point; the rotation inside it leaves each
			// stream's active journal empty.
			s.checkpointAll(true)
			if err := s.durable.Close(); err != nil && s.log != nil {
				s.log.Warn("closing durability store", "error", err)
			}
		}
	})
}

// enqueueIngest tries to hand a validated batch to the stream's shard.
// Called with ms.qmu held. It assigns arrival indices only on success, so
// a rejected batch consumes nothing: no indices, no sampler state — the
// "no partial application" half of the backpressure contract.
func (s *Server) enqueueIngest(ms *managedStream, req IngestRequest, dim int) (queued bool) {
	batch := make([]stream.Point, len(req.Points))
	next := ms.next
	for i, ip := range req.Points {
		next++
		batch[i] = ingestPoint(next, ip)
	}
	select {
	case ms.shard.ch <- batch:
		ms.next = next
		ms.dim = dim
		ms.pending.Add(int64(len(batch)))
		return true
	default:
		return false
	}
}

// handleIngestAsync is the sharded fast path of POST /streams/{name}/points:
// validate, assign indices, enqueue, return 202. Only the bookkeeping lock
// qmu is held for the queue handoff — applying the batch happens on the
// stream's worker under the sampler lock — so handlers never contend on
// sampler work. A full queue is backpressure: 429 with a Retry-After hint
// and nothing consumed. Called with ms.qmu held; releases it.
func (s *Server) handleIngestAsync(w http.ResponseWriter, name string, ms *managedStream, req IngestRequest, dim int) {
	if ms.closed {
		ms.qmu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "stream %q is shutting down", name)
		return
	}
	queued := s.enqueueIngest(ms, req, dim)
	pending := ms.pending.Load()
	ms.qmu.Unlock()
	if !queued {
		s.rejected.With(name).Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"ingest queue for stream %q is full (%d batches); retry later", name, s.ingestQueue)
		return
	}
	s.batchSize.Observe(float64(len(req.Points)))
	s.ingest.With(name).Add(uint64(len(req.Points)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Biasedres-Pending-Points", strconv.FormatInt(pending, 10))
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]any{"queued": len(req.Points), "pending": pending})
}

// collectIngest exports the async pipeline's scrape-time state: per-stream
// queue depth (batches) and pending points, the configured queue capacity,
// and how many workers are applying a batch right now.
func (s *Server) collectIngest() []obs.Family {
	if s.ingestWorkers == 0 {
		return nil
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.streams))
	for name := range s.streams {
		names = append(names, name)
	}
	byName := make(map[string]*managedStream, len(names))
	for name, ms := range s.streams {
		byName[name] = ms
	}
	s.mu.RUnlock()
	sort.Strings(names)

	depth := obs.Family{Name: "biasedres_ingest_queue_depth", Type: "gauge",
		Help: "Batches waiting in the stream's ingest queue."}
	pendPts := obs.Family{Name: "biasedres_ingest_pending_points", Type: "gauge",
		Help: "Points accepted (202) but not yet applied to the stream's sampler."}
	for _, name := range names {
		ms := byName[name]
		// The scrape runs concurrently with enqueues, deletion, and Close,
		// all of which mutate the queue state under qmu. Reading shard and
		// the (depth, pending) pair under the same lock keeps the sample
		// coherent — pending points always have a matching queue view — and
		// synchronizes with closeShard instead of racing it.
		ms.qmu.Lock()
		shard := ms.shard
		var d, pend float64
		if shard != nil {
			d = float64(len(shard.ch))
			pend = float64(ms.pending.Load())
		}
		ms.qmu.Unlock()
		if shard == nil {
			continue
		}
		label := []obs.Label{{Key: "stream", Value: name}}
		depth.Samples = append(depth.Samples, obs.Sample{Labels: label, Value: d})
		pendPts.Samples = append(pendPts.Samples, obs.Sample{Labels: label, Value: pend})
	}
	out := []obs.Family{
		{Name: "biasedres_ingest_queue_capacity_batches", Type: "gauge",
			Help:    "Configured per-stream ingest queue depth (-ingest-queue).",
			Samples: []obs.Sample{{Value: float64(s.ingestQueue)}}},
		{Name: "biasedres_ingest_workers_busy", Type: "gauge",
			Help:    "Ingest workers currently applying a batch (bounded by -ingest-workers).",
			Samples: []obs.Sample{{Value: float64(len(s.ingestSem))}}},
	}
	if len(depth.Samples) > 0 {
		out = append(out, depth, pendPts)
	}
	return out
}
