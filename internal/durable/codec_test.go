package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"biasedres/internal/stream"
)

// encodeRecord renders one journal record frame from its decoded form,
// through the same encoder Store.Append uses. The timestamp section is
// written when any op carries a timestamp.
func encodeRecord(rec Record) ([]byte, error) {
	pts := make([]stream.Point, len(rec.Ops))
	var ts []float64
	for i, op := range rec.Ops {
		pts[i] = op.P
		if op.HasTS && ts == nil {
			ts = make([]float64, len(rec.Ops))
			for j := range ts {
				ts[j] = math.NaN()
			}
		}
		if op.HasTS {
			ts[i] = op.TS
		}
	}
	return appendRecord(nil, pts, ts)
}

// randomRecord draws one record across the codec's flag space: runs of
// consecutive and of gapped indices, labels beyond int32 in both signs,
// unit and non-unit weights, and timestamps on none, some or all points.
func randomRecord(rng *rand.Rand) Record {
	n := 1 + rng.Intn(70)
	dim := rng.Intn(5)
	ops := make([]Op, n)
	idx := uint64(rng.Int63())
	consecutive := rng.Intn(2) == 0
	unitWeights := rng.Intn(2) == 0
	tsMode := rng.Intn(3) // 0 none, 1 mixed, 2 all
	for i := range ops {
		p := &ops[i].P
		p.Index = idx
		idx++
		if !consecutive {
			idx += uint64(rng.Intn(4))
		}
		switch rng.Intn(4) {
		case 0:
			p.Label = -1
		case 1:
			p.Label = rng.Intn(10)
		case 2:
			p.Label = int(rng.Int63()) // beyond int32
		default:
			p.Label = -int(rng.Int63()) - 1
		}
		p.Weight = 1
		if !unitWeights {
			p.Weight = rng.NormFloat64()
		}
		if dim > 0 {
			p.Values = make([]float64, dim)
			for j := range p.Values {
				p.Values[j] = rng.NormFloat64() * 1e6
			}
		}
		if tsMode == 2 || (tsMode == 1 && rng.Intn(2) == 0) {
			ops[i].HasTS = true
			ops[i].TS = rng.Float64() * 1e9
		}
	}
	return Record{Ops: ops}
}

// TestJournalRecordRoundtripProperty: every record the encoder accepts
// decodes to the identical ops, and the compact forms (first index only,
// weights omitted) are taken exactly when they apply.
func TestJournalRecordRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	scan, err := decodeJournal(bytes.NewReader(journalBytes(t, 9, recs...)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if scan.base != 9 || scan.tornTail || scan.corrupt || len(scan.records) != len(recs) {
		t.Fatalf("scan: base %d torn %v corrupt %v, %d of %d records",
			scan.base, scan.tornTail, scan.corrupt, len(scan.records), len(recs))
	}
	for i, want := range recs {
		if !reflect.DeepEqual(scan.records[i], want) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, scan.records[i], want)
		}
		frame, _ := encodeRecord(want)
		flags := binary.LittleEndian.Uint32(frame[16:20])
		var consecutive, unit, timed = true, true, false
		for j, op := range want.Ops {
			consecutive = consecutive && op.P.Index == want.Ops[0].P.Index+uint64(j)
			unit = unit && op.P.Weight == 1
			timed = timed || op.HasTS
		}
		if (flags&recIndices == 0) != consecutive || (flags&recWeights == 0) != unit || (flags&recTS != 0) != timed {
			t.Fatalf("record %d: flags %#x for consecutive=%v unit=%v timed=%v", i, flags, consecutive, unit, timed)
		}
	}
}

// TestJournalRecordSize pins the steady-state record size: a batch with
// consecutive indices and unit weights costs its labels and values plus a
// fixed 28-byte frame, header and first index.
func TestJournalRecordSize(t *testing.T) {
	const n, dim = 256, 4
	pts := benchPoints(n, dim)
	frame, err := appendRecord(nil, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 28 + n*8*(1+dim); len(frame) != want {
		t.Fatalf("record is %d bytes, want %d", len(frame), want)
	}
	pts[3].Values = pts[3].Values[:dim-1]
	if _, err := appendRecord(nil, pts, nil); err == nil {
		t.Fatal("ragged batch encoded without error")
	}
}

// v1JournalBytes builds a journal image in the retired "BRESJRN1" format:
// gob(Record) payloads under the same length+CRC frame.
func v1JournalBytes(t testing.TB, seq uint64, recs ...Record) []byte {
	t.Helper()
	buf := binary.LittleEndian.AppendUint64(append([]byte(nil), journalMagicV1[:]...), seq)
	for _, rec := range recs {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
			t.Fatalf("gob: %v", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(payload.Len()))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload.Bytes(), castagnoli))
		buf = append(buf, payload.Bytes()...)
	}
	return buf
}

// TestJournalV1Decodes: a v1 journal decodes to the same records, and its
// torn tail is still classified as torn.
func TestJournalV1Decodes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := []Record{randomRecord(rng), randomRecord(rng), randomRecord(rng)}
	data := v1JournalBytes(t, 3, recs...)
	scan, err := decodeJournal(bytes.NewReader(data))
	if err != nil || scan.base != 3 || scan.tornTail || scan.corrupt {
		t.Fatalf("scan %+v err %v", scan, err)
	}
	if !reflect.DeepEqual(scan.records, recs) {
		t.Fatal("v1 records did not decode to the ops written")
	}
	scan, err = decodeJournal(bytes.NewReader(data[:len(data)-1]))
	if err != nil || !scan.tornTail || scan.corrupt || len(scan.records) != 2 {
		t.Fatalf("torn v1 journal: torn %v corrupt %v records %d err %v",
			scan.tornTail, scan.corrupt, len(scan.records), err)
	}
}

// TestJournalRejectsMalformedRecord: a record whose CRC verifies but
// whose header disagrees with its length is corruption, not a panic.
func TestJournalRejectsMalformedRecord(t *testing.T) {
	frame, err := appendRecord(nil, benchPoints(4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), frame[8:]...)
	for name, mutate := range map[string]func([]byte){
		"count inflated": func(b []byte) { b[0]++ },
		"dim inflated":   func(b []byte) { b[4]++ },
		"unknown flag":   func(b []byte) { b[8] |= 0x80 },
		"huge count":     func(b []byte) { binary.LittleEndian.PutUint32(b[0:], math.MaxUint32) },
	} {
		b := append([]byte(nil), payload...)
		mutate(b)
		img := encodeJournalHeader(1)
		img = binary.LittleEndian.AppendUint32(img, uint32(len(b)))
		img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(b, castagnoli))
		img = append(img, b...)
		scan, err := decodeJournal(bytes.NewReader(img))
		if err != nil || !scan.corrupt || len(scan.records) != 0 {
			t.Errorf("%s: corrupt %v records %d err %v", name, scan.corrupt, len(scan.records), err)
		}
	}
}

// benchPoints is one applied batch as the wire path builds it: n
// consecutive arrivals sharing one values backing.
func benchPoints(n, dim int) []stream.Point {
	backing := make([]float64, n*dim)
	pts := make([]stream.Point, n)
	for i := range pts {
		for j := 0; j < dim; j++ {
			backing[i*dim+j] = float64(i*dim + j)
		}
		pts[i] = stream.Point{Index: uint64(i + 1), Values: backing[i*dim : (i+1)*dim : (i+1)*dim],
			Label: i % 3, Weight: 1}
	}
	return pts
}
