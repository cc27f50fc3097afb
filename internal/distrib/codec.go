package distrib

// Binary batch framing — the wire format of /v1/records.
//
// A frame is a 4-byte magic ("PRB1") followed by a gzip stream whose
// decompressed payload is a length-prefixed binary encoding of one
// RecordBatch: the lease ID, a string table, and the records with
// every string field replaced by a table index. Campaign records
// repeat the same module/signal/model/outcome strings thousands of
// times per batch, so the table plus varint integers typically shrinks
// a batch an order of magnitude before gzip even runs — and the
// decoder materialises each distinct string exactly once, so a
// 10 000-record upload costs dozens of string allocations, not tens of
// thousands.
//
// The decoder is strict: every length and count is bounds-checked
// against the remaining payload before any allocation, the
// decompressed size is capped, and malformed input of any shape
// returns an error — never a panic, never a partial result. That is
// the contract FuzzProtocol asserts: a 4xx on a damaged frame journals
// nothing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"propane/internal/runner"
)

// Content types. /v1/records takes only ContentTypeBinary; every
// other RPC body and every reply is ContentTypeJSON.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-propane-record-batch"
)

// frameMagic distinguishes a binary frame before any decompression
// happens; a JSON body posted with the binary content type fails
// immediately and deterministically.
var frameMagic = []byte("PRB1")

// maxDecodedPayload caps the decompressed payload, so a gzip bomb
// inside an otherwise size-legal request body cannot balloon in
// memory. The largest legitimate unit upload is far below this.
const maxDecodedPayload = 256 << 20

// errFrame wraps every decode failure, so callers can classify
// malformed frames separately from I/O trouble.
var errFrame = errors.New("malformed record-batch frame")

// stringTable interns the distinct strings of a batch during
// encoding.
type stringTable struct {
	index map[string]uint64
	list  []string
}

func (t *stringTable) intern(s string) uint64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.index[s] = i
	t.list = append(t.list, s)
	return i
}

// zigzag maps signed to unsigned for varint encoding (small negatives
// stay small).
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeRecordBatch appends a complete binary frame for batch to buf.
// The buffer is typically pooled (acquireBuffer/releaseBuffer).
func encodeRecordBatch(buf *bytes.Buffer, batch RecordBatch) error {
	payload := acquireBuffer()
	defer releaseBuffer(payload)

	table := stringTable{index: make(map[string]uint64, 64)}
	body := acquireBuffer()
	defer releaseBuffer(body)

	// First pass: encode the records against the table into body; the
	// table itself is only complete afterwards, so it is written first
	// to payload and body appended behind it.
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(w *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		w.Write(scratch[:n])
	}
	diffNames := make([]string, 0, 8)
	putUvarint(body, uint64(len(batch.Records)))
	for _, rec := range batch.Records {
		putUvarint(body, table.intern(rec.Type))
		putUvarint(body, zigzag(int64(rec.Job)))
		putUvarint(body, table.intern(rec.Module))
		putUvarint(body, table.intern(rec.Signal))
		putUvarint(body, zigzag(rec.AtMs))
		putUvarint(body, table.intern(rec.Model))
		putUvarint(body, zigzag(int64(rec.Case)))
		var flags uint64
		if rec.Fired {
			flags |= 1
		}
		if rec.SystemFailure {
			flags |= 2
		}
		putUvarint(body, flags)
		putUvarint(body, zigzag(rec.FiredAtMs))
		putUvarint(body, zigzag(rec.FailureAtMs))
		putUvarint(body, table.intern(rec.Outcome))
		putUvarint(body, table.intern(rec.Detail))
		putUvarint(body, zigzag(int64(rec.Attempts)))
		putUvarint(body, table.intern(rec.Pruned))
		diffNames = diffNames[:0]
		for sig := range rec.Diffs {
			diffNames = append(diffNames, sig)
		}
		sort.Strings(diffNames) // deterministic frames for identical batches
		putUvarint(body, uint64(len(diffNames)))
		for _, sig := range diffNames {
			d := rec.Diffs[sig]
			putUvarint(body, table.intern(sig))
			putUvarint(body, zigzag(d.FirstMs))
			putUvarint(body, zigzag(d.LastMs))
			putUvarint(body, zigzag(int64(d.Count)))
		}
	}

	putUvarint(payload, uint64(len(batch.LeaseID)))
	payload.WriteString(batch.LeaseID)
	putUvarint(payload, uint64(len(table.list)))
	for _, s := range table.list {
		putUvarint(payload, uint64(len(s)))
		payload.WriteString(s)
	}
	payload.Write(body.Bytes())

	buf.Write(frameMagic)
	zw := acquireGzipWriter(buf)
	defer releaseGzipWriter(zw)
	if _, err := zw.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("distrib: compressing record batch: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("distrib: compressing record batch: %w", err)
	}
	return nil
}

// frameReader is a bounds-checked cursor over a decompressed payload.
// Every accessor records the first error and returns zero values
// afterwards, so decoding runs straight-line and checks once.
type frameReader struct {
	data []byte
	off  int
	err  error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", errFrame, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) varint() int64 { return unzigzag(r.uvarint()) }

// count reads a collection length and sanity-checks it against the
// remaining bytes (every element costs at least one byte), so a
// hostile frame cannot demand a giant allocation up front.
func (r *frameReader) count(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)-r.off) {
		r.fail("%s count %d exceeds remaining payload %d", what, v, len(r.data)-r.off)
		return 0
	}
	return int(v)
}

func (r *frameReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail("string length %d exceeds remaining payload %d", n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// intFrom narrows a zigzag varint into an int, rejecting values that
// do not round-trip (a 32-bit build must not silently truncate a
// hostile 64-bit job index).
func (r *frameReader) intFrom(v int64, what string) int {
	if int64(int(v)) != v {
		r.fail("%s %d overflows int", what, v)
		return 0
	}
	return int(v)
}

// decodeRecordBatch parses a binary frame produced by
// encodeRecordBatch. All errors wrap errFrame.
func decodeRecordBatch(data []byte) (RecordBatch, error) {
	if !bytes.HasPrefix(data, frameMagic) {
		return RecordBatch{}, fmt.Errorf("%w: bad magic", errFrame)
	}
	zr, err := acquireGzipReader(bytes.NewReader(data[len(frameMagic):]))
	if err != nil {
		return RecordBatch{}, fmt.Errorf("%w: %v", errFrame, err)
	}
	defer releaseGzipReader(zr)
	payload := acquireBuffer()
	defer releaseBuffer(payload)
	if _, err := io.Copy(payload, io.LimitReader(zr, maxDecodedPayload+1)); err != nil {
		return RecordBatch{}, fmt.Errorf("%w: %v", errFrame, err)
	}
	if payload.Len() > maxDecodedPayload {
		return RecordBatch{}, fmt.Errorf("%w: decompressed payload exceeds %d bytes", errFrame, maxDecodedPayload)
	}

	r := &frameReader{data: payload.Bytes()}
	var batch RecordBatch
	batch.LeaseID = string(r.bytes(r.count("lease id")))

	nStrings := r.count("string table")
	table := make([]string, 0, nStrings)
	for i := 0; i < nStrings && r.err == nil; i++ {
		table = append(table, string(r.bytes(r.count("string"))))
	}
	str := func(what string) string {
		i := r.uvarint()
		if r.err != nil {
			return ""
		}
		if i >= uint64(len(table)) {
			r.fail("%s string index %d outside table of %d", what, i, len(table))
			return ""
		}
		return table[i]
	}

	nRecords := r.count("record")
	if r.err == nil {
		batch.Records = acquireRecords(nRecords)
	}
	for i := 0; i < nRecords && r.err == nil; i++ {
		var rec runner.Record
		rec.Type = str("type")
		rec.Job = r.intFrom(r.varint(), "job")
		rec.Module = str("module")
		rec.Signal = str("signal")
		rec.AtMs = r.varint()
		rec.Model = str("model")
		rec.Case = r.intFrom(r.varint(), "case")
		flags := r.uvarint()
		if flags > 3 {
			r.fail("unknown record flags %#x", flags)
		}
		rec.Fired = flags&1 != 0
		rec.SystemFailure = flags&2 != 0
		rec.FiredAtMs = r.varint()
		rec.FailureAtMs = r.varint()
		rec.Outcome = str("outcome")
		rec.Detail = str("detail")
		rec.Attempts = r.intFrom(r.varint(), "attempts")
		rec.Pruned = str("pruned")
		nDiffs := r.count("diff")
		for j := 0; j < nDiffs && r.err == nil; j++ {
			sig := str("diff signal")
			d := runner.DiffRecord{
				FirstMs: r.varint(),
				LastMs:  r.varint(),
				Count:   r.intFrom(r.varint(), "diff count"),
			}
			if r.err != nil {
				break
			}
			if rec.Diffs == nil {
				rec.Diffs = make(map[string]runner.DiffRecord, nDiffs)
			}
			rec.Diffs[sig] = d
		}
		if r.err == nil {
			batch.Records = append(batch.Records, rec)
		}
	}
	if r.err == nil && r.off != len(r.data) {
		r.fail("%d trailing bytes after last record", len(r.data)-r.off)
	}
	if r.err != nil {
		releaseRecords(batch.Records)
		return RecordBatch{}, r.err
	}
	return batch, nil
}
