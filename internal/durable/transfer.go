package durable

import (
	"fmt"
	"io"
)

// Transfer encoding: one stream's whole durable chain — a checkpoint plus
// the journal tail applied after it — packed into a single self-verifying
// blob, the unit a federation drain ships from a node to its stream's new
// placement. The snapshot inside the checkpoint is the sampler's own
// MarshalBinary output, so a transfer installed on the destination and
// re-marshaled is byte-identical to the source when the tail is empty,
// and semantically identical (same points, same probabilities, same RNG
// state after replay) when it is not.
//
// File layout, following the checkpoint/journal conventions:
//
//	[8]  magic "BRESXFR1"
//	[4]  CRC32-Castagnoli of the payload
//	[8]  payload length (little-endian)
//	[n]  payload: gob(transferPayload)
//
// Like every other durable file, structural failures decode to an
// errCorrupt-wrapped error (IsCorrupt reports true): a transfer torn by a
// mid-write fault is detected, never half-applied.

var transferMagic = [8]byte{'B', 'R', 'E', 'S', 'X', 'F', 'R', '1'}

// Transfer is one stream's chain in shippable form.
type Transfer struct {
	// Checkpoint is the base state: meta, ingest bookkeeping, sampler
	// snapshot.
	Checkpoint Checkpoint
	// Tail holds the journal records applied after the checkpoint was
	// cut, in apply order. A live-cut transfer (checkpoint taken at ship
	// time) has an empty tail.
	Tail []Record
}

// transferPayload is the gob wire form of a Transfer.
type transferPayload struct {
	Checkpoint checkpointPayload
	Tail       []Record
}

// EncodeTransfer renders t into its self-verifying blob.
func EncodeTransfer(t Transfer) ([]byte, error) {
	return sealGob(transferMagic, "transfer", transferPayload{Checkpoint: checkpointPayload(t.Checkpoint), Tail: t.Tail})
}

// DecodeTransfer parses and verifies a transfer blob. Structural failures
// (bad magic, CRC mismatch, truncation) return errCorrupt-wrapped errors.
func DecodeTransfer(data []byte) (Transfer, error) {
	var p transferPayload
	err := openGob(transferMagic, "transfer", data, &p)
	return Transfer{Checkpoint: Checkpoint(p.Checkpoint), Tail: p.Tail}, err
}

// WriteTransfer persists a transfer blob crash-safely through fs, with the
// same temp file, fsync, rename and directory fsync discipline checkpoint
// files get, so a fault mid-write leaves either the old file or the new
// one, never a torn blob under the final name.
func WriteTransfer(fs FS, p string, t Transfer) error {
	blob, err := EncodeTransfer(t)
	if err != nil {
		return err
	}
	return writeAtomic(fs, p, blob)
}

// ReadTransfer loads and verifies a transfer blob previously written with
// WriteTransfer.
func ReadTransfer(fs FS, p string) (Transfer, error) {
	rc, err := fs.Open(p)
	if err != nil {
		return Transfer{}, fmt.Errorf("durable: opening transfer file: %w", err)
	}
	defer rc.Close()
	blob, err := io.ReadAll(rc)
	if err != nil {
		return Transfer{}, fmt.Errorf("durable: reading transfer file: %w", err)
	}
	return DecodeTransfer(blob)
}
