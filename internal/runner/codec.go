package runner

// Record codec — the one binary encoding of run records: the journal
// frames it on disk (journal.go) and internal/distrib gzips it behind
// a lease ID on /v1/records. A payload is a string table, then the
// records with every string as a table index and every integer a
// varint (zigzag for signed fields, as encoding/binary does):
//
//	payload = uvarint(#strings) { uvarint(len) bytes }
//	          uvarint(#records) { record }
//	record  = job module signal at_ms model case flags fired_at_ms
//	          failure_at_ms outcome detail attempts pruned round
//	          uvarint(#diffs) { signal first_ms last_ms count }
//
// flags holds Fired (bit 0) and SystemFailure (bit 1). Type is not
// carried: every record is a run. Diffs are written as the record
// holds them, in strictly ascending signal order, so identical
// records encode identically; the decoder refuses any other order,
// duplicates included, and builds one diff slice per record. The
// decoder is strict — every count and length is checked against the
// remaining payload before anything is allocated, and malformed input
// returns an error, never a panic or a partial result (FuzzJournal,
// distrib's FuzzProtocol).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"propane/internal/sim"
	"propane/internal/trace"
)

var errPayload = errors.New("malformed record payload")

// Minimum encoded sizes, bounding the counts a payload declares: every
// record and diff field is at least a one-byte varint.
const minRecordBytes, minDiffBytes = 15, 4

// RecordEncoder encodes record payloads. It reuses its string table
// and scratch buffers across calls, so a warm encoder allocates
// nothing. The zero value is ready; it is not safe for concurrent use.
type RecordEncoder struct {
	index map[string]uint64
	list  []string
	body  []byte
}

func (e *RecordEncoder) intern(s string) uint64 {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.list))
		e.index[s], e.list = i, append(e.list, s)
	}
	return i
}

// AppendPayload appends the payload encoding recs to dst and returns
// the extended slice. Each record's Diffs must be in strictly
// ascending signal order (Record.Diffs), as newRecord and Decode
// leave them.
func (e *RecordEncoder) AppendPayload(dst []byte, recs []Record) []byte {
	if e.index == nil {
		e.index = make(map[string]uint64, 64)
	}
	clear(e.index)
	e.list = e.list[:0]
	// The table is complete only after every record is encoded, so the
	// records go to body first and are appended behind the table.
	b := binary.AppendUvarint(e.body[:0], uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		b = binary.AppendVarint(b, int64(rec.Job))
		b = binary.AppendUvarint(b, e.intern(rec.Module))
		b = binary.AppendUvarint(b, e.intern(rec.Signal))
		b = binary.AppendVarint(b, rec.AtMs)
		b = binary.AppendUvarint(b, e.intern(rec.Model))
		b = binary.AppendVarint(b, int64(rec.Case))
		var flags byte
		if rec.Fired {
			flags |= 1
		}
		if rec.SystemFailure {
			flags |= 2
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, rec.FiredAtMs)
		b = binary.AppendVarint(b, rec.FailureAtMs)
		b = binary.AppendUvarint(b, e.intern(rec.Outcome))
		b = binary.AppendUvarint(b, e.intern(rec.Detail))
		b = binary.AppendVarint(b, int64(rec.Attempts))
		b = binary.AppendUvarint(b, e.intern(rec.Pruned))
		b = binary.AppendVarint(b, int64(rec.Round))
		b = binary.AppendUvarint(b, uint64(len(rec.Diffs)))
		for _, d := range rec.Diffs {
			b = binary.AppendUvarint(b, e.intern(d.Signal))
			b = binary.AppendVarint(b, int64(d.First))
			b = binary.AppendVarint(b, int64(d.Last))
			b = binary.AppendVarint(b, int64(d.Count))
		}
	}
	e.body = b
	dst = binary.AppendUvarint(dst, uint64(len(e.list)))
	for _, s := range e.list {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, e.body...)
}

// RecordDecoder decodes record payloads. It interns every string it
// decodes across calls, so a journal of thousands of frames holds
// each module, signal and model name once. The zero value is ready;
// it is not safe for concurrent use.
type RecordDecoder struct {
	strs  map[string]string
	table []string
}

// Decode appends the records of payload to dst. On error it returns
// dst unchanged: a payload decodes whole or not at all.
func (d *RecordDecoder) Decode(dst []Record, payload []byte) ([]Record, error) {
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	r := payloadReader{data: payload}
	d.table = d.table[:0]
	for i, n := 0, r.count("string table", 1); i < n && r.err == nil; i++ {
		b := r.next(r.count("string", 1))
		s, ok := d.strs[string(b)]
		if !ok {
			s = string(b)
			d.strs[s] = s
		}
		d.table = append(d.table, s)
	}
	str := func(what string) string {
		if i := r.uvarint(); i < uint64(len(d.table)) {
			return d.table[i]
		}
		r.fail("%s string index outside table of %d", what, len(d.table))
		return ""
	}

	// Field expressions below evaluate left to right, in payload order.
	n := len(dst)
	nRecords := r.count("record", minRecordBytes)
	out := slices.Grow(dst, nRecords)
	for i := 0; i < nRecords && r.err == nil; i++ {
		rec := Record{Type: "run", Job: r.int("job"), Module: str("module"), Signal: str("signal"),
			AtMs: r.varint(), Model: str("model"), Case: r.int("case")}
		flags := r.uvarint()
		if flags > 3 {
			r.fail("unknown record flags %#x", flags)
		}
		rec.Fired, rec.SystemFailure = flags&1 != 0, flags&2 != 0
		rec.FiredAtMs, rec.FailureAtMs = r.varint(), r.varint()
		rec.Outcome, rec.Detail, rec.Attempts = str("outcome"), str("detail"), r.int("attempts")
		rec.Pruned, rec.Round = str("pruned"), r.int("round")
		if nDiffs := r.count("diff", minDiffBytes); nDiffs > 0 {
			rec.Diffs = make(trace.Diffs, nDiffs)
			for j := 0; j < nDiffs && r.err == nil; j++ {
				sig := str("diff signal")
				if j > 0 && sig <= rec.Diffs[j-1].Signal {
					r.fail("diff signal %q after %q: not ascending", sig, rec.Diffs[j-1].Signal)
				}
				rec.Diffs[j] = trace.Diff{Signal: sig, First: sim.Millis(r.varint()), Last: sim.Millis(r.varint()), Count: r.int("diff count")}
			}
		}
		out = append(out, rec)
	}
	if r.err == nil && r.off != len(r.data) {
		r.fail("%d trailing bytes after last record", len(r.data)-r.off)
	}
	if r.err != nil {
		clear(out[n:]) // drop the partial records' references
		return out[:n], r.err
	}
	return out, nil
}

// payloadReader is a bounds-checked cursor over a payload. Every
// accessor records the first error and returns zero values afterwards,
// so decoding runs straight-line and checks once.
type payloadReader struct {
	data []byte
	off  int
	err  error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", errPayload, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *payloadReader) uvarint() uint64 {
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

// varint undoes the zigzag mapping binary.AppendVarint applies.
func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int narrows a signed varint into an int, rejecting values that do
// not round-trip (a 32-bit build must not silently truncate a hostile
// 64-bit job index).
func (r *payloadReader) int(what string) int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("%s %d overflows int", what, v)
		return 0
	}
	return int(v)
}

// count reads a collection length and checks it against the remaining
// bytes at minBytes per element, so a hostile payload cannot demand a
// giant allocation up front.
func (r *payloadReader) count(what string, minBytes int) int {
	v := r.uvarint()
	if rest := uint64(len(r.data) - r.off); v > rest/uint64(minBytes) {
		r.fail("%s count %d exceeds remaining payload %d", what, v, rest)
		return 0
	}
	return int(v)
}

// next consumes n bytes; count(what, 1) has already bounded n.
func (r *payloadReader) next(n int) []byte {
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}
