package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"biasedres/internal/stream"
)

// On-disk encodings. Both files are self-verifying:
//
// Checkpoint file:
//
//	[8]  magic "BRESCKP1" (format version baked into the last byte)
//	[4]  CRC32-Castagnoli of the payload
//	[8]  payload length (little-endian)
//	[n]  payload: gob(checkpointPayload)
//
// Journal file:
//
//	[8]  magic "BRESJRN2"
//	[8]  base checkpoint sequence (little-endian)
//	then zero or more records, each:
//	[4]  payload length (little-endian)
//	[4]  CRC32-Castagnoli of the payload
//	[n]  payload: one applied ingest batch, columnar, little-endian:
//	     [4]        count   points in the batch
//	     [4]        dim     values per point
//	     [4]        flags   bit 0: explicit indices
//	                        bit 1: weights present
//	                        bit 2: timestamps present
//	     [8]        first index; indices run first, first+1, ... (without bit 0)
//	     [8·count]  indices, uint64            (bit 0 only)
//	     [8·count]  labels, int64
//	     [8·count]  weights, float64           (bit 1 only; otherwise all 1)
//	     [⌈count/8⌉] timestamp presence mask, bit i%8 of byte i/8 (bit 2 only)
//	     [8·count]  timestamps, float64; 0 where the mask bit is clear (bit 2 only)
//	     [8·count·dim] values, float64, row-major
//
// The payload length must equal the size the header implies exactly.
// Journals written before this layout carry the magic "BRESJRN1" and a
// gob(Record) payload; they are still decoded so old data directories
// replay, but nothing writes them any more.
//
// A torn tail — the normal state after a crash mid-append — fails the
// length or CRC check of the last record and replay stops there; the
// valid prefix is still used. Anything that fails *before* the tail is
// corruption, and the file is quarantined rather than trusted.

var (
	ckptMagic      = [8]byte{'B', 'R', 'E', 'S', 'C', 'K', 'P', '1'}
	journalMagic   = [8]byte{'B', 'R', 'E', 'S', 'J', 'R', 'N', '2'}
	journalMagicV1 = [8]byte{'B', 'R', 'E', 'S', 'J', 'R', 'N', '1'}
)

// Record flag bits (journal v2).
const (
	recIndices = 1 << 0
	recWeights = 1 << 1
	recTS      = 1 << 2
	recAll     = recIndices | recWeights | recTS
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a file that failed structural validation (bad magic,
// bad CRC, truncation). Recovery quarantines the file instead of failing.
var errCorrupt = errors.New("durable: corrupt file")

// IsCorrupt reports whether err marks a corrupt checkpoint or journal.
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// StreamMeta is the stream configuration a checkpoint carries, enough to
// rebuild the sampler factory on recovery. It mirrors the server's create
// request.
type StreamMeta struct {
	Name     string
	Policy   string
	Lambda   float64
	Capacity int
	Window   uint64
	// Tiers and TierRatio describe a multi-horizon ladder (0/absent for
	// single-reservoir streams — gob leaves them zero when decoding
	// checkpoints written before tiers existed, which recovery reads as
	// untiered).
	Tiers     int
	TierRatio float64
}

// Checkpoint is one durable cut of a stream: its configuration, ingest
// bookkeeping and the sampler's binary snapshot, tagged with the sequence
// number that orders it against the stream's journals.
type Checkpoint struct {
	Seq  uint64
	Meta StreamMeta
	// Next is the last assigned arrival index (the server's `next`
	// counter), which can run ahead of the sampler's processed count
	// while batches sit in the async ingest queue.
	Next uint64
	// Dim is the stream's committed point dimensionality (0 = none yet).
	Dim int
	// Snapshot is the sampler's encoding.BinaryMarshaler output.
	Snapshot []byte
}

// checkpointPayload is the gob wire form of a Checkpoint.
type checkpointPayload struct {
	Seq      uint64
	Meta     StreamMeta
	Next     uint64
	Dim      int
	Snapshot []byte
}

// Op is one journaled ingest operation: the point as applied, plus the
// explicit timestamp for time-decay streams (HasTS distinguishes "AddAt
// ts" from "Add with clock+1").
type Op struct {
	P     stream.Point
	TS    float64
	HasTS bool
}

// Record is one journal entry: the ops of one applied ingest batch.
type Record struct {
	Ops []Op
}

// sealGob renders v as a self-verifying file: magic, CRC32-C and length
// of the payload, then the gob payload. Checkpoints and transfers share it.
func sealGob(magic [8]byte, kind string, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("durable: encoding %s: %w", kind, err)
	}
	buf := make([]byte, 0, 20+payload.Len())
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload.Bytes(), castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	return append(buf, payload.Bytes()...), nil
}

// openGob verifies a sealGob file and decodes its payload into v.
// Structural failures return errCorrupt-wrapped errors.
func openGob(magic [8]byte, kind string, data []byte, v any) error {
	if len(data) < 20 {
		return fmt.Errorf("%w: %s header truncated at %d bytes", errCorrupt, kind, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return fmt.Errorf("%w: bad %s magic %q", errCorrupt, kind, data[:8])
	}
	sum := binary.LittleEndian.Uint32(data[8:12])
	n := binary.LittleEndian.Uint64(data[12:20])
	if uint64(len(data)-20) != n {
		return fmt.Errorf("%w: %s payload is %d bytes, header says %d", errCorrupt, kind, len(data)-20, n)
	}
	payload := data[20:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return fmt.Errorf("%w: %s checksum mismatch", errCorrupt, kind)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding %s payload: %v", errCorrupt, kind, err)
	}
	return nil
}

// encodeCheckpoint renders ck into its file bytes.
func encodeCheckpoint(ck Checkpoint) ([]byte, error) {
	return sealGob(ckptMagic, "checkpoint", checkpointPayload(ck))
}

// decodeCheckpoint parses and verifies checkpoint file bytes.
func decodeCheckpoint(data []byte) (Checkpoint, error) {
	var p checkpointPayload
	err := openGob(ckptMagic, "checkpoint", data, &p)
	return Checkpoint(p), err
}

// encodeJournalHeader renders the journal file header for base seq.
func encodeJournalHeader(seq uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, journalMagic[:]...)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// appendRecord appends the journal record frame of one applied batch to
// buf, encoding straight from the points. ts, when non-nil, holds each
// point's explicit timestamp, NaN where it has none (the time-decay HTTP
// path). Every point must have the batch's dimensionality.
func appendRecord(buf []byte, pts []stream.Point, ts []float64) ([]byte, error) {
	n, dim := len(pts), len(pts[0].Values)
	var flags uint32
	for i, p := range pts {
		if len(p.Values) != dim {
			return buf, fmt.Errorf("durable: point %d has %d values, batch has %d", i, len(p.Values), dim)
		}
		if p.Index != pts[0].Index+uint64(i) {
			flags |= recIndices
		}
		if p.Weight != 1 {
			flags |= recWeights
		}
	}
	if ts != nil {
		flags |= recTS
	}
	l := recordLayout(n, dim, flags)
	start := len(buf)
	buf = slices.Grow(buf, 8+l.size)[:start+8+l.size]
	b := buf[start+8:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(n))
	le.PutUint32(b[4:], uint32(dim))
	le.PutUint32(b[8:], flags)
	le.PutUint64(b[12:], pts[0].Index)
	clear(b[l.mask:l.ts]) // reused buffer; mask bits are only ever set
	for i, p := range pts {
		if flags&recIndices != 0 {
			le.PutUint64(b[12+8*i:], p.Index)
		}
		le.PutUint64(b[l.label+8*i:], uint64(int64(p.Label)))
		if flags&recWeights != 0 {
			le.PutUint64(b[l.weight+8*i:], math.Float64bits(p.Weight))
		}
		if flags&recTS != 0 {
			at := ts[i]
			if math.IsNaN(at) {
				at = 0
			} else {
				b[l.mask+i/8] |= 1 << (i % 8)
			}
			le.PutUint64(b[l.ts+8*i:], math.Float64bits(at))
		}
		for j, v := range p.Values {
			le.PutUint64(b[l.values+8*(i*dim+j):], math.Float64bits(v))
		}
	}
	le.PutUint32(buf[start:], uint32(l.size))
	le.PutUint32(buf[start+4:], crc32.Checksum(b, castagnoli))
	return buf, nil
}

// layout is the byte offset of each v2 payload section after the fixed
// header and index section, and the payload size. Absent sections are
// empty.
type layout struct{ label, weight, mask, ts, values, size int }

// recordLayout is the layout a record header implies.
func recordLayout(n, dim int, flags uint32) (l layout) {
	l.label = 12 + 8 // the first index only
	if flags&recIndices != 0 {
		l.label = 12 + 8*n
	}
	l.weight = l.label + 8*n
	l.mask = l.weight
	if flags&recWeights != 0 {
		l.mask += 8 * n
	}
	l.ts, l.values = l.mask, l.mask
	if flags&recTS != 0 {
		l.ts += (n + 7) / 8
		l.values = l.ts + 8*n
	}
	l.size = l.values + 8*n*dim
	return l
}

// decodeRecord parses one v2 record payload (see the layout above).
func decodeRecord(b []byte) (Record, error) {
	le := binary.LittleEndian
	if len(b) < 12 {
		return Record{}, fmt.Errorf("record header truncated at %d bytes", len(b))
	}
	n, dim, flags := int(le.Uint32(b[0:])), int(le.Uint32(b[4:])), le.Uint32(b[8:])
	// Every point costs at least its label and every value 8 bytes, so
	// bounding n and dim by the payload keeps the size arithmetic exact
	// and the allocations below no larger than the input.
	l := recordLayout(n, dim, flags)
	if n == 0 || flags&^recAll != 0 || n > len(b)/8 || dim > len(b)/8 || l.size != len(b) {
		return Record{}, fmt.Errorf("record header (count %d, dim %d, flags %#x) does not match %d payload bytes",
			n, dim, flags, len(b))
	}
	f64 := func(at int) float64 { return math.Float64frombits(le.Uint64(b[at:])) }
	ops := make([]Op, n)
	values := make([]float64, n*dim)
	for i := range ops {
		p := &ops[i].P
		p.Index = le.Uint64(b[12:]) + uint64(i)
		if flags&recIndices != 0 {
			p.Index = le.Uint64(b[12+8*i:])
		}
		p.Label = int(int64(le.Uint64(b[l.label+8*i:])))
		p.Weight = 1
		if flags&recWeights != 0 {
			p.Weight = f64(l.weight + 8*i)
		}
		if flags&recTS != 0 {
			ops[i].HasTS = b[l.mask+i/8]&(1<<(i%8)) != 0
			ops[i].TS = f64(l.ts + 8*i)
		}
		if dim > 0 {
			p.Values = values[i*dim : (i+1)*dim : (i+1)*dim]
			for j := range p.Values {
				p.Values[j] = f64(l.values + 8*(i*dim+j))
			}
		}
	}
	return Record{Ops: ops}, nil
}

// decodeRecordV1 parses a gob record payload from a "BRESJRN1" journal.
func decodeRecordV1(b []byte) (Record, error) {
	var rec Record
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec)
	return rec, err
}

// journalScan is the result of reading one journal file: the base
// sequence, every intact record in order, and how the file ended.
// tornTail marks a cleanly truncated final frame — the normal disk state
// after a crash mid-append, replayable up to the tear. corrupt marks
// content that cannot be explained by truncation (CRC mismatch, garbage
// length, undecodable payload); the valid prefix is still returned but
// the file deserves quarantine.
type journalScan struct {
	base     uint64
	records  []Record
	tornTail bool
	corrupt  bool
}

// decodeJournal reads a journal stream. A header failure is corruption
// (the whole file is untrustworthy); record failures end the scan with
// the valid prefix, classified as torn or corrupt.
func decodeJournal(r io.Reader) (journalScan, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		return journalScan{}, fmt.Errorf("%w: journal header truncated: %v", errCorrupt, err)
	}
	decode := decodeRecord
	switch {
	case bytes.Equal(head[:8], journalMagicV1[:]):
		decode = decodeRecordV1
	case !bytes.Equal(head[:8], journalMagic[:]):
		return journalScan{}, fmt.Errorf("%w: bad journal magic %q", errCorrupt, head[:8])
	}
	scan := journalScan{base: binary.LittleEndian.Uint64(head[8:16])}
	frame := make([]byte, 8)
	var payload bytes.Buffer
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err != io.EOF {
				scan.tornTail = true // partial frame header
			}
			return scan, nil
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxRecordBytes {
			scan.corrupt = true // length field is garbage, not a truncation
			return scan, nil
		}
		// A reused buffer that grows only with the bytes actually present.
		payload.Reset()
		if m, _ := io.CopyN(&payload, br, int64(n)); m < int64(n) {
			scan.tornTail = true
			return scan, nil
		}
		if crc32.Checksum(payload.Bytes(), castagnoli) != sum {
			scan.corrupt = true
			return scan, nil
		}
		rec, err := decode(payload.Bytes())
		if err != nil {
			scan.corrupt = true
			return scan, nil
		}
		scan.records = append(scan.records, rec)
	}
}

// maxRecordBytes bounds a single journal record frame; anything larger is
// treated as a corrupt length field rather than allocated.
const maxRecordBytes = 1 << 30
