package distrib

// Pooled encode/decode machinery for the /v1/records wire format,
// extending the internal/trace/pool.go idiom to the fabric: the hot
// path of a scaled-out campaign is one encode on the worker and one
// decode on the coordinator per batch, and none of the buffers, gzip
// state or record slices involved need to outlive the request that
// used them. Recycling them keeps fleet-wide allocations flat in the
// worker count instead of growing with it.
//
// HAZARD: a released record slice may be handed to another decode —
// callers must copy any runner.Record they retain (the coordinator's
// seen map stores records by value, which is exactly that copy) before
// releasing the batch.

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"

	"propane/internal/runner"
)

// pooledBufferCap bounds the capacity a buffer may retain in the
// pool; a once-huge upload must not pin its worst case forever.
const pooledBufferCap = 4 << 20

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func acquireBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

func releaseBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > pooledBufferCap {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}

// gzip writers carry ~1.4 MB of deflate state each; resetting one is
// far cheaper than building it, and the level never varies (BestSpeed:
// the payload is already entropy-reduced by the string table, and the
// fabric is usually loopback- or LAN-bound, not WAN-bound).
var gzipWriterPool = sync.Pool{
	New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return w
	},
}

func acquireGzipWriter(w io.Writer) *gzip.Writer {
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw
}

func releaseGzipWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	gzipWriterPool.Put(zw)
}

// A zero gzip.Reader initialises itself on Reset, so the pool can
// start from zero values.
var gzipReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

func acquireGzipReader(r io.Reader) (*gzip.Reader, error) {
	zr := gzipReaderPool.Get().(*gzip.Reader)
	if err := zr.Reset(r); err != nil {
		gzipReaderPool.Put(zr)
		return nil, err
	}
	return zr, nil
}

func releaseGzipReader(zr *gzip.Reader) {
	_ = zr.Close()
	gzipReaderPool.Put(zr)
}

// pooledRecordsCap bounds the record-slice capacity retained by the
// pool, mirroring pooledBufferCap.
const pooledRecordsCap = 1 << 16

var recordsPool = sync.Pool{New: func() any { return []runner.Record(nil) }}

// acquireRecords returns an empty record slice to decode into.
func acquireRecords() []runner.Record { return recordsPool.Get().([]runner.Record) }

// releaseRecords recycles a batch's record slice once every retained
// record has been copied out.
func releaseRecords(s []runner.Record) {
	if s == nil || cap(s) > pooledRecordsCap {
		return
	}
	recordsPool.Put(s[:0])
}

// Record encoders keep their string table and scratch buffers between
// uses, so a warm one encodes a chunk without allocating.
var encoderPool = sync.Pool{New: func() any { return new(runner.RecordEncoder) }}

func acquireEncoder() *runner.RecordEncoder { return encoderPool.Get().(*runner.RecordEncoder) }

func releaseEncoder(e *runner.RecordEncoder) { encoderPool.Put(e) }
