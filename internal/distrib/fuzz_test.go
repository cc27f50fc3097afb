package distrib

// FuzzProtocol throws arbitrary bytes at the coordinator's four POST
// endpoints — typed as binary frames or as JSON for /v1/records — and
// asserts the hardened-protocol invariants: the coordinator never
// panics, never answers 5xx to malformed input, a JSON-typed record
// body answers 415, and a 4xx reply implies nothing was journaled by
// that request — the all-or-nothing batch guarantee.
// Run it natively:
//
//	go test ./internal/distrib/ -fuzz FuzzProtocol -fuzztime 30s
//
// Under plain `go test` only the seed corpus executes, keeping tier-1
// fast.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"propane/internal/runner"
	"propane/internal/trace"
)

var fuzzPaths = []string{PathLease, PathRecords, PathHeartbeat, PathComplete}

func FuzzProtocol(f *testing.F) {
	dir, err := os.MkdirTemp("", "propane-fuzz-*")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		// Tiny TTL: fuzz-granted leases return to the pool almost
		// immediately, so a later lease request never parks the full
		// long-poll window waiting for an expiry.
		LeaseTTL: 50 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { coord.Close() })
	h := coord.Handler()

	// Seeds: one well-formed body per endpoint, plus shapes that have
	// historically been dangerous — a batch whose *second* record is
	// invalid (partial-journal bait), out-of-range jobs, conflicting
	// rewrites, junk, and truncated JSON.
	f.Add(0, false, []byte(`{"worker":"w1"}`))
	f.Add(1, false, []byte(`{"lease_id":"L0001-u0","records":[{"job":0}]}`))
	f.Add(1, false, []byte(`{"lease_id":"L0001-u0","records":[{"job":0},{"job":-1}]}`))
	f.Add(1, false, []byte(`{"lease_id":"L0001-u0","records":[{"job":0},{"job":1}]}`))
	f.Add(1, false, []byte(`{"lease_id":"L0001-u0","records":[{"job":99999}]}`))
	f.Add(1, false, []byte(`{"lease_id":"L0001-u0","records":[{"job":0,"outcome":"ok"},{"job":0,"outcome":"crash"}]}`))
	f.Add(2, false, []byte(`{"lease_id":"L0001-u0"}`))
	f.Add(3, false, []byte(`{"lease_id":"L0001-u0","runs":3,"digest":"abc","wall_ms":12}`))
	f.Add(1, false, []byte(`{"lease_id":`))
	f.Add(2, false, []byte(`not json at all`))
	f.Add(0, false, []byte(``))
	f.Add(3, false, []byte(`[1,2,3]`))

	// Binary-frame seeds: a well-formed frame, the same frame with a
	// record that is out of range, a truncated frame (mid-gzip), a
	// frame with damaged magic, raw garbage behind a valid magic, and
	// a valid body behind the previous version's magic.
	good := recordFrame(f, "L0001-u0", []runner.Record{
		{Type: "run", Job: 0, Module: "m1", Signal: "s1", Model: "bitflip:0", Outcome: "ok"},
		{Type: "run", Job: 1, Module: "m1", Signal: "s2", Model: "bitflip:1", Outcome: "deviation",
			Fired: true, FiredAtMs: 12, Diffs: trace.Diffs{
				{Signal: "sig", First: 1, Last: 9, Count: 4},
			}},
	})
	f.Add(1, true, good)
	f.Add(1, true, recordFrame(f, "L0001-u0", []runner.Record{{Type: "run", Job: 99999}}))
	f.Add(1, true, good[:len(good)/2])
	bad := bytes.Clone(good)
	bad[0] ^= 0xff
	f.Add(1, true, bad)
	f.Add(1, true, append([]byte("PRB2"), []byte("definitely not gzip")...))
	// The previous protocol version's magic in front of a current body.
	f.Add(1, true, append([]byte("PRB1"), good[4:]...))
	// JSON posted with the binary content type must fail cleanly, not
	// confuse the decoder; a frame posted as JSON is refused unread.
	f.Add(1, true, []byte(`{"lease_id":"L0001-u0","records":[{"job":0}]}`))
	f.Add(1, false, good)

	f.Fuzz(func(t *testing.T, which int, binary bool, body []byte) {
		if which < 0 {
			which = -which
		}
		path := fuzzPaths[which%len(fuzzPaths)]
		before := coord.Metrics().ReceivedRuns

		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if binary && path == PathRecords {
			req.Header.Set("Content-Type", ContentTypeBinary)
		} else {
			req.Header.Set("Content-Type", ContentTypeJSON)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here is the fuzz failure

		if rec.Code >= 500 {
			t.Fatalf("%s answered %d to fuzzed input %q: %s", path, rec.Code, body, rec.Body.Bytes())
		}
		if path == PathRecords && !binary && rec.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("JSON-typed record body answered %d, want 415: %s", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered non-JSON %q to input %q", path, rec.Body.Bytes(), body)
		}
		if rec.Code >= 400 {
			if after := coord.Metrics().ReceivedRuns; after != before {
				t.Fatalf("%s answered %d yet journaled %d records (%d → %d): partial journal on rejected input %q",
					path, rec.Code, after-before, before, after, body)
			}
		}
	})
}
