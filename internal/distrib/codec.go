package distrib

// The wire format of /v1/records: a 4-byte magic ("PRB2"), then a
// gzip stream of the lease ID (uvarint length, bytes) and one payload
// of the runner's record codec (internal/runner/codec.go) — the
// payload the journal frames on disk, so a record has one encoding.
// The magic fails a body of another protocol version, or JSON posted
// as binary, before any decompression. Decoding is strict: the
// decompressed size is capped and the record decoder bounds every
// count and length, so malformed input returns an error — never a
// panic, never a partial batch — and FuzzProtocol asserts that a 4xx
// on a damaged body journals nothing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"propane/internal/runner"
)

// Content types. /v1/records takes only ContentTypeBinary; every
// other RPC body and every reply is ContentTypeJSON.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-propane-record-batch"
)

// frameMagic marks a /v1/records body of this protocol version.
var frameMagic = []byte("PRB2")

// maxDecodedPayload caps the decompressed payload, so a gzip bomb
// inside an otherwise size-legal request body cannot balloon in
// memory. The largest legitimate unit upload is far below this.
const maxDecodedPayload = 256 << 20

// errFrame wraps every decode failure, so callers can classify
// malformed bodies separately from I/O trouble.
var errFrame = errors.New("malformed record-batch frame")

// encodeRecordBatch appends a complete /v1/records body for batch to
// buf. The buffer is typically pooled (acquireBuffer/releaseBuffer).
func encodeRecordBatch(buf *bytes.Buffer, batch RecordBatch) error {
	enc := acquireEncoder()
	defer releaseEncoder(enc)
	payload := acquireBuffer()
	defer releaseBuffer(payload)
	b := binary.AppendUvarint(payload.AvailableBuffer(), uint64(len(batch.LeaseID)))
	b = append(b, batch.LeaseID...)
	payload.Write(enc.AppendPayload(b, batch.Records))

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

// decodeRecordBatch parses a body produced by encodeRecordBatch. All
// errors wrap errFrame. The batch's record slice comes from the
// record pool (releaseRecords).
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

	p := payload.Bytes()
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return RecordBatch{}, fmt.Errorf("%w: truncated lease id", errFrame)
	}
	batch := RecordBatch{LeaseID: string(p[k : k+int(n)])}
	var dec runner.RecordDecoder
	if batch.Records, err = dec.Decode(acquireRecords(), p[k+int(n):]); err != nil {
		releaseRecords(batch.Records)
		return RecordBatch{}, fmt.Errorf("%w: %v", errFrame, err)
	}
	return batch, nil
}
