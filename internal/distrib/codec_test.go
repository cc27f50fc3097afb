package distrib

import (
	"bytes"
	"errors"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"propane/internal/runner"
)

// codecBatch is a record batch exercising every field the wire
// carries: empty and repeated strings, negative integers, flag
// combinations, multi-entry diff maps and adaptive round labels.
func codecBatch() RecordBatch {
	return RecordBatch{
		LeaseID: "L0042-u7",
		Records: []runner.Record{
			{Type: "run", Job: 0, Module: "engine", Signal: "rpm", Model: "", Outcome: "ok"},
			{Type: "run", Job: 1, Module: "engine", Signal: "rpm", AtMs: 1500, Model: "bitflip",
				Case: 3, Fired: true, FiredAtMs: 1502, Outcome: "deviation", Attempts: 2, Round: 4,
				Diffs: map[string]runner.DiffRecord{
					"out.torque": {FirstMs: 1502, LastMs: 1900, Count: 17},
					"out.rpm":    {FirstMs: 1510, LastMs: 1890, Count: 3},
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

// TestPullModeReuploads pins Config.Pull's distinct branch: with the
// coordinator already holding a unit's full record set, a completion
// is still answered NeedRecords — the records re-upload
// and re-verify record by record — and only the post-upload
// completion settles the unit.
func TestPullModeReuploads(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Pull:     true,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	lr, recs := leaseAndCollect(t, url, filepath.Join(dir, "scratch"))
	w := &worker{base: url, opts: WorkerOptions{Name: "puller", Logf: t.Logf}, ctx: t.Context(),
		client: &http.Client{Timeout: 10 * time.Second}}
	var br BatchResponse
	frame := recordFrame(t, lr.LeaseID, recs)
	if err := w.send(PathRecords, ContentTypeBinary, frame, &br); err != nil {
		t.Fatal(err)
	}
	if !br.UnitDone {
		t.Fatalf("uploaded the full unit but UnitDone=false (accepted %d)", br.Accepted)
	}
	// The coordinator is fully covered, the digest matches — Pull must
	// still demand the upload.
	creq := CompleteRequest{LeaseID: lr.LeaseID, Runs: len(recs), Digest: runner.RecordSetDigest(recs)}
	var cr CompleteResponse
	if err := w.post(PathComplete, creq, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.NeedRecords {
		t.Fatal("Pull coordinator settled a covered unit without demanding the upload")
	}
	if err := w.send(PathRecords, ContentTypeBinary, frame, &br); err != nil {
		t.Fatalf("re-upload under Pull rejected: %v", err)
	}
	creq.Uploaded = true
	var cr2 CompleteResponse
	if err := w.post(PathComplete, creq, &cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.NeedRecords {
		t.Error("coordinator still demands records after the forced re-upload")
	}
	st := coord.Status()
	if st.UnitsDetail[lr.Unit.Unit].State != "done" {
		t.Errorf("unit state %q after pull-verified completion, want done", st.UnitsDetail[lr.Unit.Unit].State)
	}
}

// TestDigestMismatchRejected pins the no-transfer settle's
// cross-check: a completion whose record-set digest contradicts
// the journaled set is refused with 409, because it means the two
// sides simulated different outcomes.
func TestDigestMismatchRejected(t *testing.T) {
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
	var cr CompleteResponse
	err = w.post(PathComplete, CompleteRequest{
		LeaseID: lr.LeaseID, Runs: len(recs),
		Digest: "0000000000000000000000000000000000000000000000000000000000000000",
	}, &cr)
	if !leaseLost(err) {
		t.Fatalf("contradicting digest answered %v, want a 409 conflict", err)
	}
	// The truthful digest then settles the same covered unit.
	if err := w.post(PathComplete, CompleteRequest{
		LeaseID: lr.LeaseID, Runs: len(recs), Digest: runner.RecordSetDigest(recs),
	}, &cr); err != nil {
		t.Fatalf("truthful completion rejected after the mismatched one: %v", err)
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
