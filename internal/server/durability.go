package server

import (
	"fmt"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/stream"
)

// Durability wiring: with WithDurability enabled, every stream's sampler
// state survives process death. The moving parts:
//
//   - Stream creation writes checkpoint sequence 1 (the empty sampler and
//     its configuration) before the 201 is acknowledged, so a stream that
//     existed exists after a crash.
//   - Every applied ingest batch is framed onto the stream's append-only
//     journal (ops carry arrival indices, and explicit timestamps for
//     time-decay streams). Appends hit the OS immediately; fsyncs are
//     coalesced on JournalSyncInterval, bounding post-kill loss to that
//     window.
//   - A background checkpointer wakes on CheckpointInterval, skips
//     streams whose sampler mutation counter (core.VersionedSampler)
//     advanced fewer than CheckpointMinOps times, and for the rest cuts
//     the journal and marshals the sampler under the sampler lock, then
//     writes the checkpoint file outside every lock.
//   - Startup recovery (New) loads each stream's newest verifying
//     checkpoint, replays its journal tail, rebaselines with a fresh
//     checkpoint, and serves. Corrupt files are quarantined by the store,
//     never fatal.
//   - Close drains the ingest shards, takes a final checkpoint of every
//     stream, and closes the journals.

// DurabilityConfig tunes the durability layer. Zero values pick defaults.
type DurabilityConfig struct {
	// CheckpointInterval is the background checkpointer's wake period
	// (default 10s).
	CheckpointInterval time.Duration
	// CheckpointMinOps is the minimum number of sampler mutations since a
	// stream's last checkpoint for the checkpointer to write a new one
	// (default 1 — any change; quiescent streams are always skipped).
	CheckpointMinOps uint64
	// JournalSyncInterval is the journal fsync coalescing window (default
	// 100ms). After a hard kill, at most this window of acknowledged
	// points can be lost.
	JournalSyncInterval time.Duration
}

func (cfg DurabilityConfig) withDefaults() DurabilityConfig {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * time.Second
	}
	if cfg.CheckpointMinOps == 0 {
		cfg.CheckpointMinOps = 1
	}
	if cfg.JournalSyncInterval <= 0 {
		cfg.JournalSyncInterval = 100 * time.Millisecond
	}
	return cfg
}

// WithDurability persists every stream to store: recovery runs during
// New, and the server starts a checkpointer goroutine plus a journal
// fsync loop. Servers with durability enabled must be Closed.
func WithDurability(store *durable.Store, cfg DurabilityConfig) Option {
	return func(s *Server) {
		s.durable = store
		s.dcfg = cfg.withDefaults()
	}
}

// durableMeta renders a stream's configuration for its checkpoints.
func durableMeta(name string, req CreateRequest) durable.StreamMeta {
	return durable.StreamMeta{
		Name:      name,
		Policy:    req.Policy,
		Lambda:    req.Lambda,
		Capacity:  req.Capacity,
		Window:    req.Window,
		Tiers:     req.Tiers,
		TierRatio: req.TierRatio,
	}
}

// createRequestOf inverts durableMeta for recovery.
func createRequestOf(meta durable.StreamMeta) CreateRequest {
	return CreateRequest{
		Policy:    meta.Policy,
		Lambda:    meta.Lambda,
		Capacity:  meta.Capacity,
		Window:    meta.Window,
		Tiers:     meta.Tiers,
		TierRatio: meta.TierRatio,
	}
}

// appendJournal frames one applied batch onto the stream's journal; ts
// carries the explicit timestamps of time-decay HTTP ingest, NaN where a
// point has none (nil elsewhere). Called on the apply paths (sync
// handler, wire sink, shard worker) while ms.mu is held, so journal order
// matches apply order. Failures degrade durability, not availability:
// they are logged and counted, and ingest continues.
func (s *Server) appendJournal(name string, batch []stream.Point, ts []float64) {
	if s.durable == nil {
		return
	}
	if err := s.durable.Append(name, batch, ts); err != nil {
		if s.log != nil {
			s.log.Warn("journal append failed", "stream", name, "error", err)
		}
	}
}

// samplerVersion reads a sampler's mutation counter (0 when the sampler
// does not expose one; such a stream is checkpointed every interval).
func samplerVersion(sm core.Sampler) (uint64, bool) {
	if vs, ok := sm.(core.VersionedSampler); ok {
		return vs.Version(), true
	}
	return 0, false
}

// checkpointStream cuts and writes one stream's checkpoint. force skips
// the quiescence test (restore, shutdown). It returns false when the
// stream was skipped as quiescent.
func (s *Server) checkpointStream(name string, ms *managedStream, force bool) bool {
	// Lock order matches handleSnapshot: capture next/dim under qmu, take
	// the sampler lock, release qmu before the slow work.
	ms.qmu.Lock()
	next, dim := ms.next, ms.dim
	ms.mu.Lock()
	ms.qmu.Unlock()
	ver, versioned := samplerVersion(ms.sampler)
	if !force && versioned && ver-ms.lastCkptVer < s.dcfg.CheckpointMinOps {
		ms.mu.Unlock()
		return false
	}
	// Cut the journal at the exact sampler state being marshaled: both
	// happen under ms.mu, so journal <seq> holds exactly the ops applied
	// after this snapshot.
	seq, err := s.durable.Rotate(name)
	if err != nil {
		ms.mu.Unlock()
		if s.log != nil {
			s.log.Warn("checkpoint rotation failed", "stream", name, "error", err)
		}
		return false
	}
	blob, merr := ms.sampler.MarshalBinary()
	if merr == nil {
		ms.lastCkptVer = ver
	}
	ms.mu.Unlock()
	if merr != nil {
		if s.log != nil {
			s.log.Warn("checkpoint marshal failed", "stream", name, "error", merr)
		}
		return false
	}
	ck := durable.Checkpoint{
		Seq:      seq,
		Meta:     durableMeta(name, ms.createReq),
		Next:     next,
		Dim:      dim,
		Snapshot: blob,
	}
	if err := s.durable.WriteCheckpoint(name, ck); err != nil {
		if s.log != nil {
			s.log.Warn("checkpoint write failed", "stream", name, "error", err)
		}
		return false
	}
	return true
}

// checkpointAll sweeps every stream once.
func (s *Server) checkpointAll(force bool) {
	s.mu.RLock()
	type pair struct {
		name string
		ms   *managedStream
	}
	streams := make([]pair, 0, len(s.streams))
	for name, ms := range s.streams {
		streams = append(streams, pair{name, ms})
	}
	s.mu.RUnlock()
	for _, p := range streams {
		s.checkpointStream(p.name, p.ms, force)
	}
}

// CheckpointNow synchronously checkpoints every stream regardless of
// quiescence — the hook shutdown and the recovery tests use. It is a
// no-op without durability.
func (s *Server) CheckpointNow() {
	if s.durable == nil {
		return
	}
	s.checkpointAll(true)
}

// runDurability is the background loop: journal fsyncs on the coalescing
// interval, checkpoints on the checkpoint interval.
func (s *Server) runDurability() {
	defer s.durWG.Done()
	ckpt := time.NewTicker(s.dcfg.CheckpointInterval)
	defer ckpt.Stop()
	sync := time.NewTicker(s.dcfg.JournalSyncInterval)
	defer sync.Stop()
	for {
		select {
		case <-s.durStop:
			return
		case <-sync.C:
			if err := s.durable.Sync(); err != nil && s.log != nil {
				s.log.Warn("journal sync failed", "error", err)
			}
		case <-ckpt.C:
			s.checkpointAll(false)
		}
	}
}

// replayTail applies a journal tail to a freshly restored sampler, in
// order, and advances the (next, dim) ingest bookkeeping past every
// replayed op. Time-decay streams (including time-decay tier ladders)
// replay through AddAt to reproduce their clock; everything else takes
// the batch path. Shared by startup recovery and transfer install — both
// turn a checkpoint + tail chain into a live sampler.
func replayTail(sampler persistentSampler, tail []durable.Record, next uint64, dim int) (uint64, int, error) {
	td, timed := core.AsTimed(sampler)
	for _, r := range tail {
		if timed {
			for _, op := range r.Ops {
				if op.HasTS {
					if err := td.AddAt(op.P, op.TS); err != nil {
						return next, dim, fmt.Errorf("replaying journal: %w", err)
					}
				} else {
					td.Add(op.P)
				}
			}
		} else {
			batch := make([]stream.Point, len(r.Ops))
			for i, op := range r.Ops {
				batch[i] = op.P
			}
			core.AddBatch(sampler, batch)
		}
		for _, op := range r.Ops {
			if op.P.Index > next {
				next = op.P.Index
			}
			if dim == 0 && len(op.P.Values) > 0 {
				dim = len(op.P.Values)
			}
		}
	}
	return next, dim, nil
}

// recoverDurable rebuilds every stream the data directory holds. Per-file
// corruption was already quarantined by the store; per-stream semantic
// failures (a snapshot that does not restore) quarantine the stream's
// files and skip it. Only a systemic scan failure is returned.
func (s *Server) recoverDurable() error {
	recs, err := s.durable.Recover()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		name := rec.Checkpoint.Meta.Name
		if err := s.adoptRecovered(rec); err != nil {
			s.durable.QuarantineStream(name)
			if s.log != nil {
				s.log.Warn("stream recovery failed; files quarantined", "stream", name, "error", err)
			}
			continue
		}
		if s.log != nil {
			s.log.Info("stream recovered", "stream", name,
				"seq", rec.Checkpoint.Seq, "replayed_records", len(rec.Tail), "torn_tail", rec.TornTail)
		}
	}
	return nil
}

// rebuildStream turns a checkpoint and the journal tail applied after it
// into a live managed stream: resolve the policy, restore the snapshot,
// replay the tail. Shared by startup recovery and transfer install.
func (s *Server) rebuildStream(ck durable.Checkpoint, tail []durable.Record) (*managedStream, error) {
	req := createRequestOf(ck.Meta)
	if req.Policy == "" {
		req.Policy = "variable"
	}
	fresh, err := samplerFactory(req)
	if err != nil {
		return nil, fmt.Errorf("resolving policy: %w", err)
	}
	s.mu.Lock()
	rng := s.seeds.Split()
	s.mu.Unlock()
	sampler, err := fresh(rng)
	if err != nil {
		return nil, fmt.Errorf("rebuilding sampler: %w", err)
	}
	if err := sampler.UnmarshalBinary(ck.Snapshot); err != nil {
		return nil, fmt.Errorf("restoring snapshot: %w", err)
	}
	next, dim, err := replayTail(sampler, tail, ck.Next, ck.Dim)
	if err != nil {
		return nil, err
	}
	ms := &managedStream{sampler: sampler, policy: req.Policy, lambda: req.Lambda,
		createReq: req, fresh: fresh, next: next, dim: dim}
	ms.lastCkptVer, _ = samplerVersion(sampler)
	return ms, nil
}

// attachCheckpoint anchors a stream's durable chain at seq: a checkpoint
// of the stream's current state, and a fresh journal on top of it.
func (s *Server) attachCheckpoint(name string, ms *managedStream, seq uint64) error {
	blob, err := ms.sampler.MarshalBinary()
	if err != nil {
		return err
	}
	return s.durable.Attach(name, durable.Checkpoint{Seq: seq, Meta: durableMeta(name, ms.createReq),
		Next: ms.next, Dim: ms.dim, Snapshot: blob})
}

// adoptRecovered turns one recovered chain into a live managed stream and
// rebaselines it with a fresh checkpoint above every on-disk sequence.
func (s *Server) adoptRecovered(rec durable.Recovered) error {
	name := rec.Checkpoint.Meta.Name
	ms, err := s.rebuildStream(rec.Checkpoint, rec.Tail)
	if err != nil {
		return err
	}
	// Rebaseline: one fresh checkpoint above every sequence the disk holds
	// (including corrupt newer generations), so the replayed state is
	// durable again before the stream serves traffic.
	if err := s.attachCheckpoint(name, ms, rec.MaxSeq+1); err != nil {
		return fmt.Errorf("rebaselining: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.streams[name]; exists {
		return fmt.Errorf("stream %q already registered", name)
	}
	if s.ingestWorkers > 0 && ms.policy != "timedecay" {
		s.startIngestShard(name, ms)
	}
	s.streams[name] = ms
	return nil
}
