package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// journalSeeds are the fuzz seeds: valid v2 and v1 journals across the
// record flag space plus near-miss mutants of them.
func journalSeeds(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(3))
	var recs []Record
	for len(recs) < 3 {
		rec := randomRecord(rng)
		rec.Ops = rec.Ops[:1+len(rec.Ops)%4]
		recs = append(recs, rec)
	}
	v2 := func(recs ...Record) []byte {
		buf := encodeJournalHeader(1)
		for _, rec := range recs {
			frame, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, frame...)
		}
		return buf
	}
	valid := v2(recs...)
	mutate := func(fn func([]byte)) []byte {
		out := append([]byte(nil), valid...)
		fn(out)
		return out
	}
	return map[string][]byte{
		"v2-valid":         valid,
		"v2-consecutive":   v2(Record{Ops: []Op{opWithValue(1), opWithValue(2)}}),
		"v1-valid":         v1JournalBytes(t, 1, recs...),
		"v2-header-only":   encodeJournalHeader(7),
		"v2-torn":          valid[:len(valid)-3],
		"v2-payload-flip":  mutate(func(b []byte) { b[len(b)-1] ^= 0x10 }),
		"v2-length-huge":   mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], maxRecordBytes+1) }),
		"bad-magic":        mutate(func(b []byte) { b[7] = '9' }),
		"empty":            {},
		"v1-magic-v2-body": mutate(func(b []byte) { b[7] = '1' }),
	}
}

// TestGenerateJournalCorpus regenerates the checked-in fuzz corpus under
// testdata/fuzz/FuzzDecodeJournal. It only runs when
// DURABLE_GEN_CORPUS=1, so normal test runs never rewrite testdata.
func TestGenerateJournalCorpus(t *testing.T) {
	if os.Getenv("DURABLE_GEN_CORPUS") != "1" {
		t.Skip("set DURABLE_GEN_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeJournal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range journalSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeJournal drives journal decoding with arbitrary bytes. The
// properties under test: it never panics or errors past the header, and
// every record it accepts re-encodes to a frame that decodes back to the
// same frame bytes (the codec is a fixed point after one round).
func FuzzDecodeJournal(f *testing.F) {
	f.Add(encodeJournalHeader(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := decodeJournal(bytes.NewReader(data))
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("header failure not classified corrupt: %v", err)
			}
			return
		}
		for i, rec := range scan.records {
			frame, err := encodeRecord(rec)
			if err != nil {
				continue // v1 gob records may be ragged; v2 never is
			}
			again, err := decodeRecord(frame[8:])
			if err != nil {
				t.Fatalf("record %d: re-encoded frame does not decode: %v", i, err)
			}
			frame2, err := encodeRecord(again)
			if err != nil || !bytes.Equal(frame, frame2) {
				t.Fatalf("record %d: round trip drifted (err %v)", i, err)
			}
		}
	})
}
