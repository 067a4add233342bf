package server

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"net/http/httptest"
	"testing"

	"biasedres/internal/durable"
)

// v1Journal renders batches as a journal in the format written before the
// columnar record codec: magic "BRESJRN1", then one gob(durable.Record)
// per batch under a length + CRC32-C frame. Each point is the one the
// HTTP ingest path applies for the matching IngestPoint.
func v1Journal(t *testing.T, seq uint64, batches [][]IngestPoint) []byte {
	t.Helper()
	buf := binary.LittleEndian.AppendUint64([]byte("BRESJRN1"), seq)
	index := uint64(0)
	for _, batch := range batches {
		rec := durable.Record{Ops: make([]durable.Op, len(batch))}
		for i, ip := range batch {
			index++
			rec.Ops[i] = durable.Op{P: ingestPoint(index, ip)}
			if ip.TS != nil {
				rec.Ops[i].TS, rec.Ops[i].HasTS = *ip.TS, true
			}
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
			t.Fatalf("gob: %v", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(payload.Len()))
		buf = binary.LittleEndian.AppendUint32(buf,
			crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
		buf = append(buf, payload.Bytes()...)
	}
	return buf
}

// TestDurableJournalReplayByteIdentical: a data directory left by a binary that
// wrote gob journal records still recovers, and the replayed sampler is
// byte-identical to one that applied the same batches directly; so does
// a columnar journal this binary wrote before a hard kill. The time-decay
// case mixes explicit timestamps with clock-advancing points.
func TestDurableJournalReplayByteIdentical(t *testing.T) {
	label := 2
	cases := []struct {
		name string
		req  CreateRequest
		ts   bool
	}{
		{"variable", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 16}, false},
		{"timedecay", CreateRequest{Policy: "timedecay", Lambda: 0.1, Capacity: 8}, true},
	}
	for _, c := range cases {
		for _, v1 := range []bool{true, false} {
			name := c.name + "/v2"
			if v1 {
				name = c.name + "/v1"
			}
			t.Run(name, func(t *testing.T) {
				var batches [][]IngestPoint
				clock := 0.0
				for b := 0; b < 6; b++ {
					batch := make([]IngestPoint, 7)
					for i := range batch {
						v := float64(b*7 + i)
						batch[i] = IngestPoint{Values: []float64{v, -v}, Weight: 1 + float64(i%2)}
						if i%3 == 0 {
							batch[i].Label = &label
						}
						clock++
						if c.ts && i%2 == 0 {
							clock += 0.5
							at := clock
							batch[i].TS = &at
						}
					}
					batches = append(batches, batch)
				}

				// The stream as a hard kill left it: checkpoint 1 durable,
				// every batch only in its journal.
				fs := durable.NewMemFS()
				ts, _, store := newDurableServer(t, fs)
				createStream(t, ts.URL, "s", c.req)
				if !v1 {
					for _, b := range batches {
						ingest(t, ts.URL, "s", b)
					}
					if err := store.Sync(); err != nil {
						t.Fatalf("Sync: %v", err)
					}
				}
				fs.Crash()
				ts.Close()
				fs.Reboot()
				if v1 {
					fs.WriteFile("data/st-s.1.journal", v1Journal(t, 1, batches))
				}

				rts, recovered, _ := newDurableServer(t, fs)

				direct := New(1)
				dts := httptest.NewServer(direct)
				defer dts.Close()
				createStream(t, dts.URL, "s", c.req)
				for _, b := range batches {
					ingest(t, dts.URL, "s", b)
				}
				if got, want := snapshotBytes(t, recovered, "s"), snapshotBytes(t, direct, "s"); !bytes.Equal(got, want) {
					t.Fatalf("recovered sampler (%d bytes) differs from the directly applied one (%d bytes)",
						len(got), len(want))
				}
				if n := streamProcessed(t, rts.URL, "s"); n != 42 {
					t.Fatalf("processed = %v, want 42", n)
				}
			})
		}
	}
}
