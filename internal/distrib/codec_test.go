package distrib

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"propane/internal/runner"
	"propane/internal/trace"
)

// codecBatch is a record batch exercising every field the wire
// carries: empty and repeated strings, negative integers, flag
// combinations, multi-signal diffs and adaptive round labels.
func codecBatch() RecordBatch {
	return RecordBatch{
		LeaseID: "L0042-u7",
		Records: []runner.Record{
			{Type: "run", Job: 0, Module: "engine", Signal: "rpm", Model: "", Outcome: "ok"},
			{Type: "run", Job: 1, Module: "engine", Signal: "rpm", AtMs: 1500, Model: "bitflip",
				Case: 3, Fired: true, FiredAtMs: 1502, Outcome: "deviation", Attempts: 2, Round: 4,
				Diffs: trace.Diffs{
					{Signal: "out.rpm", First: 1510, Last: 1890, Count: 3},
					{Signal: "out.torque", First: 1502, Last: 1900, Count: 17},
				}},
			{Type: "run", Job: 2, Module: "gearbox", Signal: "ratio", AtMs: -1, Model: "stuck",
				Case: -4, SystemFailure: true, FailureAtMs: 2200, Outcome: "crash",
				Detail: "watchdog: budget exhausted", Attempts: 1},
			{Type: "run", Job: 3, Module: "engine", Signal: "rpm", Model: "bitflip",
				Outcome: "ok", Pruned: "memoized"},
		},
	}
}

// TestRecordBatchRoundTrip proves a /v1/records body carries the
// lease ID and every record field losslessly.
func TestRecordBatchRoundTrip(t *testing.T) {
	want := codecBatch()
	var buf bytes.Buffer
	if err := encodeRecordBatch(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordBatch(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.LeaseID != want.LeaseID {
		t.Errorf("lease id %q, want %q", got.LeaseID, want.LeaseID)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Errorf("record %d round-tripped as\n%+v\nwant\n%+v", i, got.Records[i], want.Records[i])
		}
	}
	releaseRecords(got.Records)
}

// TestFrameDeterministic pins body determinism: identical batches
// encode to identical bytes (diff-map keys are sorted), so bodies are
// directly comparable and idempotency keys derived from the body are
// stable across retries.
func TestFrameDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := encodeRecordBatch(&a, codecBatch()); err != nil {
		t.Fatal(err)
	}
	if err := encodeRecordBatch(&b, codecBatch()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical batches encoded to different frames")
	}
}

// gzipFrame wraps a raw decompressed body behind magic, bypassing the
// encoder.
func gzipFrame(t testing.TB, magic string, raw []byte) []byte {
	t.Helper()
	var frame bytes.Buffer
	frame.WriteString(magic)
	zw := acquireGzipWriter(&frame)
	defer releaseGzipWriter(zw)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// TestDecodeHostileFrames proves the wire wrapper rejects malformed
// bodies of every shape with an error — never a panic, never a
// partial batch. Hostile record payloads behind a valid wrapper are
// the record decoder's (runner.TestDecodeHostileRecords).
func TestDecodeHostileFrames(t *testing.T) {
	var good bytes.Buffer
	if err := encodeRecordBatch(&good, codecBatch()); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("XXXX"), good.Bytes()[4:]...),
		"previous magic":   append([]byte("PRB1"), good.Bytes()[4:]...),
		"magic only":       bytes.Clone(frameMagic),
		"garbage gzip":     append(bytes.Clone(frameMagic), []byte("not a gzip stream")...),
		"truncated":        good.Bytes()[:good.Len()/2],
		"trailing garbage": append(bytes.Clone(good.Bytes()), 0xde, 0xad),
		"no lease id":      gzipFrame(t, string(frameMagic), nil),
		"long lease id":    gzipFrame(t, string(frameMagic), []byte{0x7f, 'L'}),
		// A valid lease ID in front of a record payload demanding a
		// giant string table.
		"hostile payload": gzipFrame(t, string(frameMagic), []byte{0x01, 'L', 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}),
	}
	for name, data := range cases {
		if _, err := decodeRecordBatch(data); !errors.Is(err, errFrame) {
			t.Errorf("%s: decoded with %v, want errFrame", name, err)
		}
	}
}

// TestConflictingUploadRejected pins the per-record cross-check: a
// record the coordinator already holds, uploaded again under another
// lease with one field changed, is refused with 409 and
// ErrConflictingRecords, because it means two workers simulated
// different outcomes for the same job. Nothing journals and no run is
// counted.
func TestConflictingUploadRejected(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	lr, recs := leaseAndCollect(t, url, filepath.Join(dir, "scratch"))
	w := &worker{base: url, opts: WorkerOptions{Name: "liar", Logf: t.Logf}, ctx: t.Context(),
		client: &http.Client{Timeout: 10 * time.Second}}
	var br BatchResponse
	if err := w.send(PathRecords, ContentTypeBinary, recordFrame(t, lr.LeaseID, recs), &br); err != nil {
		t.Fatal(err)
	}
	if !br.UnitDone {
		t.Fatalf("uploaded the full unit but UnitDone=false (accepted %d)", br.Accepted)
	}
	journal, err := os.ReadFile(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	received := coord.Metrics().ReceivedRuns

	var second LeaseResponse
	if err := w.post(PathLease, LeaseRequest{Worker: w.opts.Name}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusUnit || second.LeaseID == lr.LeaseID {
		t.Fatalf("second lease %+v, want a unit under a new lease", second)
	}
	changed := recs[0]
	changed.FiredAtMs++
	err = w.send(PathRecords, ContentTypeBinary, recordFrame(t, second.LeaseID, []runner.Record{changed}), &br)
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusConflict || !strings.Contains(se.msg, runner.ErrConflictingRecords.Error()) {
		t.Fatalf("conflicting upload answered %v, want 409 naming %q", err, runner.ErrConflictingRecords)
	}
	if got, err := os.ReadFile(runner.JournalPath(dir)); err != nil || !bytes.Equal(got, journal) {
		t.Errorf("journal changed after a rejected conflicting upload (err %v)", err)
	}
	if got := coord.Metrics().ReceivedRuns; got != received {
		t.Errorf("coordinator received %d runs after the rejected upload, want %d", got, received)
	}
}

// TestInvalidRecordsRejected pins record validation on ingest for a
// fixed-matrix campaign: a record assembly could not parse — an
// unknown model spec, an outcome outside the campaign.Outcome set, or
// none — or one whose job index disagrees with its content rejects
// its whole batch with 400, and nothing journals.
func TestInvalidRecordsRejected(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	lr, recs := leaseAndCollect(t, url, filepath.Join(dir, "scratch"))
	w := &worker{base: url, opts: WorkerOptions{Name: "hostile", Logf: t.Logf}, ctx: t.Context(),
		client: &http.Client{Timeout: 10 * time.Second}}
	for name, damage := range map[string]func([]runner.Record){
		"unknown model":   func(r []runner.Record) { r[0].Model = "not-a-model" },
		"unknown outcome": func(r []runner.Record) { r[0].Outcome = "weird" },
		"no outcome":      func(r []runner.Record) { r[0].Outcome = "" },
		// Both jobs belong to the unit, so only the content check can
		// tell that each record claims the other's job.
		"mislabelled job": func(r []runner.Record) { r[0].Job, r[1].Job = r[1].Job, r[0].Job },
	} {
		bad := slices.Clone(recs)
		damage(bad)
		var br BatchResponse
		err := w.send(PathRecords, ContentTypeBinary, recordFrame(t, lr.LeaseID, bad), &br)
		var se *httpStatusError
		if !errors.As(err, &se) || se.status != http.StatusBadRequest {
			t.Errorf("%s: batch answered %v, want 400", name, err)
		}
	}
	if got := coord.Metrics().ReceivedRuns; got != 0 {
		t.Errorf("coordinator received %d runs from rejected batches, want 0", got)
	}
	if _, journaled, err := runner.ReadJournal(runner.JournalPath(dir)); err != nil || len(journaled) != 0 {
		t.Errorf("journal holds %d records (err %v) after only rejected batches, want 0", len(journaled), err)
	}
}
