package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"biasedres/internal/durable"
)

// Stream transfer: the data-plane half of federated live migration. A
// coordinator draining a node fetches each resident stream as one
// self-verifying durable.Transfer blob (GET) and installs it on the
// stream's new placement (POST). The blob is a live-cut checkpoint — the
// sampler marshaled under its lock with the (next, dim) bookkeeping
// captured coherently — with an empty journal tail, so installing it and
// re-marshaling reproduces the source's snapshot bytes exactly (the
// byte-identity the migration tests assert). The format also carries a
// tail for chains shipped straight off disk; install replays it through
// the same path startup recovery uses.

// handleTransferGet is GET /streams/{name}/transfer: export the stream
// as a transfer blob. Points sitting in the async ingest queue are not in
// the cut (exactly like GET /snapshot); the X-Biasedres-Pending header
// reports how many, so a migrating caller can wait for quiescence when it
// needs a loss-free cut.
func (s *Server) handleTransferGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	// Same lock discipline as handleSnapshot: capture next/dim under qmu,
	// take the sampler lock before letting qmu go, marshal outside qmu.
	ms.qmu.Lock()
	next, dim := ms.next, ms.dim
	ms.mu.Lock()
	ms.qmu.Unlock()
	blob, err := ms.sampler.MarshalBinary()
	ms.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "transfer: %v", err)
		return
	}
	out, err := durable.EncodeTransfer(durable.Transfer{
		Checkpoint: durable.Checkpoint{
			Seq:      1,
			Meta:     durableMeta(name, ms.createReq),
			Next:     next,
			Dim:      dim,
			Snapshot: blob,
		},
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "transfer: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Biasedres-Pending", strconv.FormatInt(ms.pending.Load(), 10))
	_, _ = w.Write(out)
}

// handleTransferPost is POST /streams/{name}/transfer: install a
// transfer blob as a new stream under the path name. The blob's embedded
// meta supplies the configuration; its name is advisory (a transfer can
// install under a different name). Installing over an existing stream is
// refused with 409 — migration ships to nodes that do not hold the
// stream, and an operator who really wants to overwrite can DELETE first.
func (s *Server) handleTransferPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	tr, err := durable.DecodeTransfer(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "transfer: %v", err)
		return
	}
	ms, err := s.rebuildStream(tr.Checkpoint, tr.Tail)
	if err != nil {
		httpError(w, http.StatusBadRequest, "transfer: %v", err)
		return
	}

	s.mu.Lock()
	// Same registration discipline as handleCreate: refuse during
	// shutdown so the shard worker cannot leak past Close's snapshot.
	if !s.ready.Load() {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "not ready: recovering or shutting down")
		return
	}
	if _, exists := s.streams[name]; exists {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	if s.durable != nil {
		// The installed stream is durable from its first moment: one
		// checkpoint holding the replayed state, above the shipped seq.
		if err := s.attachCheckpoint(name, ms, tr.Checkpoint.Seq+1); err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "checkpointing installed stream: %v", err)
			return
		}
	}
	if s.ingestWorkers > 0 && ms.policy != "timedecay" {
		s.startIngestShard(name, ms)
	}
	s.streams[name] = ms
	s.mu.Unlock()

	processed, size := ms.sampler.Processed(), ms.sampler.Len()
	if s.log != nil {
		s.log.Info("stream installed from transfer", "stream", name,
			"processed", processed, "size", size, "tail_records", len(tr.Tail))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"installed": name, "processed": processed, "size": size})
}
