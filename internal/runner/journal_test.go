package runner

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/sim"
	"propane/internal/trace"
)

func sampleRunRecord() campaign.RunRecord {
	return campaign.RunRecord{
		Injection: inject.Injection{
			Module: "CALC",
			Signal: "pulscnt",
			At:     2500,
			Model:  inject.BitFlip{Bit: 7},
		},
		CaseIndex:     3,
		Fired:         true,
		FiredAt:       2501,
		SystemFailure: true,
		FailureAt:     2710,
		Outcome:       campaign.OutcomeDeviation,
		Diffs: trace.Diffs{
			{Signal: "OutValue", First: -1, Last: -1, Count: 0},
			{Signal: "SetValue", First: 2502, Last: 2900, Count: 41},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := sampleRunRecord()
	jr := newRecord(17, "bitflip:7", rec)
	if jr.Job != 17 || jr.Type != "run" {
		t.Errorf("record header wrong: %+v", jr)
	}
	if _, ok := jr.Diffs.Get("OutValue"); ok {
		t.Error("non-deviating diff journaled")
	}
	back, err := jr.RunRecord()
	if err != nil {
		t.Fatal(err)
	}
	if back.Injection != rec.Injection {
		t.Errorf("injection %v != %v", back.Injection, rec.Injection)
	}
	if back.Fired != rec.Fired || back.FiredAt != rec.FiredAt ||
		back.SystemFailure != rec.SystemFailure || back.FailureAt != rec.FailureAt {
		t.Errorf("outcome fields diverge: %+v vs %+v", back, rec)
	}
	if want := rec.Diffs[1:]; !slices.Equal(back.Diffs, want) {
		t.Errorf("diffs %+v, want %+v", back.Diffs, want)
	}
	// A live run's diffs hold deviating signals only; its record and
	// the campaign record rebuilt from it share that slice.
	rec.Diffs = rec.Diffs[1:]
	jr = newRecord(17, "bitflip:7", rec)
	if back, _ = jr.RunRecord(); &jr.Diffs[0] != &rec.Diffs[0] || &back.Diffs[0] != &rec.Diffs[0] {
		t.Error("the deviating-only diffs were copied, not shared")
	}
}

func TestJournalAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	hdr := JournalHeader{Instance: "x", Tier: "quick", ConfigDigest: "abc"}
	w, err := openJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		jr := newRecord(i, "bitflip:7", sampleRunRecord())
		if err := w.AppendBatch([]Record{jr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, recs, _, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigDigest != "abc" || len(recs) != 5 {
		t.Fatalf("loaded %d records, header %+v", len(recs), got)
	}

	// Re-opening with a matching digest appends; a different digest
	// refuses.
	w, err = openJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	bad := hdr
	bad.ConfigDigest = "different"
	if _, err := openJournal(path, bad); err == nil {
		t.Error("openJournal accepted a digest mismatch")
	}
}

// tornFixture journals three frames — one record, two records, one
// record — and returns the file's bytes, the byte offset where each
// frame ends (the first entry is the header's end), and the records.
func tornFixture(t testing.TB, path string, hdr JournalHeader) (data []byte, bounds []int, recs []Record) {
	t.Helper()
	w, err := openJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		jr := newRecord(i, "bitflip:7", sampleRunRecord())
		jr.Round = i
		recs = append(recs, jr)
	}
	for _, batch := range [][]Record{recs[:1], recs[1:3], recs[3:]} {
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	pos := bytes.IndexByte(data, '\n') + 1
	bounds = append(bounds, pos)
	for pos < len(data) {
		pos += frameHeaderLen + int(binary.LittleEndian.Uint32(data[pos:]))
		bounds = append(bounds, pos)
	}
	if len(bounds) != 4 || pos != len(data) {
		t.Fatalf("journal of %d bytes splits into frames ending at %v, want 3 frames", len(data), bounds)
	}
	return data, bounds, recs
}

// TestCheckJournal vets a three-frame journal without decoding it: the
// intact copy counts every record, a cut on a frame boundary counts
// fewer, and a torn tail, a flipped payload byte or a foreign digest
// is an error.
// TestOpenJournalAllocs: reopening a journal for appending checks its
// header and frames without decoding a record, so it allocates a
// small constant whatever the journal holds.
func TestOpenJournalAllocs(t *testing.T) {
	hdr := JournalHeader{Instance: "x", Tier: "quick", ConfigDigest: "abc"}
	jr := newRecord(0, "bitflip:7", sampleRunRecord())
	openAllocs := func(records int) float64 {
		path := filepath.Join(t.TempDir(), "journal.bin")
		w, err := openJournal(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			jr.Job = i
			if err := w.AppendBatch([]Record{jr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			w, err := openJournal(path, hdr)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const bound = 40
	small, large := openAllocs(5), openAllocs(5000)
	t.Logf("openJournal allocates %v times over 5 records, %v over 5,000", small, large)
	if large > bound || large > small {
		t.Errorf("opening a 5,000-record journal allocates %v times (5 records: %v), want at most %d and no more than the small one", large, small, bound)
	}
}

func TestCheckJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	data, bounds, recs := tornFixture(t, path, JournalHeader{ConfigDigest: "abc"})
	if n, err := CheckJournal(path, data, "abc"); err != nil || n != len(recs) {
		t.Fatalf("intact journal: %d records, %v; want %d", n, err, len(recs))
	}
	if n, err := CheckJournal(path, data[:bounds[2]], "abc"); err != nil || n != 3 {
		t.Errorf("journal cut after two frames: %d records, %v; want 3", n, err)
	}
	if _, err := CheckJournal(path, data[:len(data)-1], "abc"); err == nil {
		t.Error("accepted a torn tail")
	}
	flipped := bytes.Clone(data)
	flipped[bounds[1]+frameHeaderLen+1] ^= 0x40
	if _, err := CheckJournal(path, flipped, "abc"); err == nil {
		t.Error("accepted a flipped byte in the middle frame")
	}
	if _, err := CheckJournal(path, data, "other"); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("foreign digest: %v, want ErrDigestMismatch", err)
	}
	if _, err := CheckJournal(path, nil, "abc"); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("empty journal: %v, want ErrDigestMismatch", err)
	}
}

// TestJournalToleratesTornTail cuts the journal at every byte offset
// inside its last frame, its length and checksum included: loading
// keeps exactly the earlier frames, validLen lands on the frame
// boundary, and a reopened journal truncates the torn frame and
// appends behind it, reloading everything.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	hdr := JournalHeader{ConfigDigest: "abc"}
	data, bounds, all := tornFixture(t, path, hdr)
	lastStart := bounds[2]
	for off := lastStart; off < len(data); off++ {
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs, validLen, err := loadJournal(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if !reflect.DeepEqual(recs, all[:3]) {
			t.Errorf("cut at %d: loaded %d records, want the earlier frames' 3", off, len(recs))
		}
		if validLen != int64(lastStart) {
			t.Errorf("cut at %d: validLen %d, want the frame boundary %d", off, validLen, lastStart)
		}
		w, err := openJournal(path, hdr)
		if err != nil {
			t.Fatalf("cut at %d: reopening: %v", off, err)
		}
		if err := w.AppendBatch(all[3:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, validLen, err = loadJournal(path)
		if err != nil || !reflect.DeepEqual(recs, all) || validLen != int64(len(data)) {
			t.Errorf("cut at %d: healed journal reloads %d records, validLen %d (err %v), want %d, %d",
				off, len(recs), validLen, err, len(all), len(data))
		}
	}
}

// TestJournalRejectsCorruption pins the other half of the torn-tail
// rule: a damaged byte anywhere in a complete middle frame — length,
// checksum or payload — is an error, and a zero-filled tail (a file
// that grew before its data landed) is torn or an error but never
// decodes as records.
func TestJournalRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	data, bounds, all := tornFixture(t, path, JournalHeader{ConfigDigest: "abc"})
	for i := bounds[1]; i < bounds[2]; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		if _, recs, _, err := parseJournal(path, bad); err == nil {
			t.Errorf("byte %d of the middle frame damaged: loaded %d records without error", i, len(recs))
		}
	}
	zeroTails := map[string][]byte{}
	for _, n := range []int{1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 1, 4096} {
		zeroTails[fmt.Sprintf("%d zeros appended", n)] = append(bytes.Clone(data), make([]byte, n)...)
	}
	zeroTails["last frame zeroed"] = append(bytes.Clone(data[:bounds[2]]), make([]byte, len(data)-bounds[2])...)
	for name, bad := range zeroTails {
		_, recs, validLen, err := parseJournal(path, bad)
		if err != nil {
			continue
		}
		if n := len(recs); n > len(all) || !reflect.DeepEqual(recs, all[:n]) || validLen > int64(len(data)) {
			t.Errorf("%s: loaded %d records, validLen %d — phantom records from zeros", name, n, validLen)
		}
	}
}

// TestRecordCodecRoundTrip proves the record payload carries every
// field losslessly — Round included, Type restored as "run" — and
// appends to what the destination already holds.
func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []Record{
		{Type: "run", Job: 0, Module: "CALC", Signal: "pulscnt", Model: "", Outcome: "ok"},
		{Type: "run", Job: 17, Module: "CALC", Signal: "pulscnt", AtMs: 2500, Model: "bitflip:7",
			Case: 3, Fired: true, FiredAtMs: 2501, SystemFailure: true, FailureAtMs: 2710,
			Outcome: "deviation", Attempts: 2, Round: 6,
			Diffs: trace.Diffs{
				{Signal: "OutValue", First: 2600, Last: 2601, Count: 1},
				{Signal: "SetValue", First: 2502, Last: 2900, Count: 41},
			}},
		{Type: "run", Job: -2, Module: "V_REG", Signal: "SetValue", AtMs: -1, Model: "stuck:1",
			Case: -4, Outcome: "crash", Detail: "mine tripped", Attempts: 1, Pruned: "converged"},
	}
	var enc RecordEncoder
	var dec RecordDecoder
	payload := enc.AppendPayload(nil, recs)
	got, err := dec.Decode([]Record{recs[0]}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]Record{recs[0]}, recs...); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip\n%+v\nwant\n%+v", got, want)
	}
	if again := enc.AppendPayload(nil, recs); !bytes.Equal(again, payload) {
		t.Error("a reused encoder encoded identical records differently")
	}
}

// TestRecordSetDigestStable pins RecordSetDigest's bytes: a fixed
// record set — out of job order, with a multi-signal diff, records
// without diffs, a Detail that JSON escapes and the Pruned and Round
// labels set — hashes to the digest it had when records held their
// diffs in a map keyed by signal. The committed reference digests of
// the benchmark campaigns depend on these bytes.
func TestRecordSetDigestStable(t *testing.T) {
	recs := []Record{
		{Type: "run", Job: 17, Module: "CALC", Signal: "pulscnt", AtMs: 2500, Model: "bitflip:7",
			Case: 3, Fired: true, FiredAtMs: 2501, SystemFailure: true, FailureAtMs: 2710,
			Outcome: "deviation", Pruned: "converged", Round: 6,
			Diffs: trace.Diffs{
				{Signal: "OutValue", First: 2600, Last: 2601, Count: 1},
				{Signal: "SetValue", First: 2502, Last: 2900, Count: 41},
				{Signal: "i", First: 2503, Last: 2503, Count: 1},
			}},
		{Type: "run", Job: 2, Module: "V_REG", Signal: "SetValue", AtMs: 1500, Model: "stuck:1",
			Case: 0, Fired: true, FiredAtMs: 1500, Outcome: "crash", Detail: `panic: <a> & "b"`, Pruned: "memo-store", Round: 2},
		{Type: "run", Job: 9, Module: "PRES_S", Signal: "ADC", AtMs: 3000, Model: "bitflip:0",
			Case: 1, Outcome: "quarantined", Detail: "worker lost", Attempts: 3},
		{Type: "run", Job: 4, Module: "CLOCK", Signal: "ms_slot_nbr", AtMs: 40, Model: "bitflip:15",
			Case: 2, Fired: true, FiredAtMs: 41, Outcome: "ok", Pruned: "noop"},
	}
	const want = "4820dff5955832091497058026a6fd765a9c9d3522b15f491f55292e6a88364c"
	if got := RecordSetDigest(recs); got != want {
		t.Errorf("RecordSetDigest = %s, want %s", got, want)
	}
}

// TestAppendFrameAllocs pins the journal's append path: a warm
// encoder and frame buffer encode a record without allocating.
func TestAppendFrameAllocs(t *testing.T) {
	rec := newRecord(3, "bitflip:7", sampleRunRecord())
	recs := []Record{rec}
	var enc RecordEncoder
	buf := appendFrame(nil, &enc, recs)
	if n := testing.AllocsPerRun(100, func() { buf = appendFrame(buf[:0], &enc, recs) }); n != 0 {
		t.Errorf("appending a journal frame allocated %.1f times, want 0", n)
	}
}

// TestDecodeRecordAllocs pins the decode path of one record: a warm
// decoder, whose string table already holds every name, decoding a
// record with nine diffs into a destination with room allocates only
// the record's diff slice.
func TestDecodeRecordAllocs(t *testing.T) {
	rec := Record{Type: "run", Job: 4, Module: "V_REG", Signal: "SetValue", AtMs: 1500, Model: "bitflip:14",
		Case: 1, Fired: true, FiredAtMs: 1500, SystemFailure: true, FailureAtMs: 1520, Outcome: "deviation"}
	for i := range 9 {
		rec.Diffs = append(rec.Diffs, trace.Diff{Signal: fmt.Sprintf("sig%d", i), First: sim.Millis(1500 + i), Last: 2000, Count: 40 + i})
	}
	var enc RecordEncoder
	var dec RecordDecoder
	payload := enc.AppendPayload(nil, []Record{rec})
	dst := make([]Record, 0, 1)
	got, err := dec.Decode(dst, payload)
	if err != nil || len(got) != 1 || !RecordsEqual(got[0], rec) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, rec)
	}
	if n := testing.AllocsPerRun(100, func() { got, err = dec.Decode(dst[:0], payload) }); n != 1 || err != nil {
		t.Errorf("decoding a record with nine diffs allocated %v times (err %v), want 1", n, err)
	}
}

// TestDecodeHostileRecords proves the record decoder rejects
// malformed payloads of every shape with an error and leaves the
// destination untouched — never a panic, never a partial result.
func TestDecodeHostileRecords(t *testing.T) {
	var enc RecordEncoder
	withDiffs := func(diffs ...trace.Diff) []byte {
		return enc.AppendPayload(nil, []Record{{Type: "run", Job: 1, Module: "m", Signal: "s", Model: "bitflip:0",
			Outcome: "deviation", Diffs: diffs}})
	}
	s, t2 := trace.Diff{Signal: "s", First: 1, Last: 2, Count: 2}, trace.Diff{Signal: "t", First: 1, Last: 1, Count: 1}
	good := withDiffs(s, t2)
	// minimal is one record over a one-string table, every field zero
	// or index 0; the cases below damage one field of it.
	minimal := func(field int, v ...byte) []byte {
		p := []byte{1, 1, 'm', 1}
		for i := 0; i < minRecordBytes; i++ {
			if i == field {
				p = append(p, v...)
			} else {
				p = append(p, 0)
			}
		}
		return p
	}
	if _, err := new(RecordDecoder).Decode(nil, minimal(-1)); err != nil {
		t.Fatalf("the undamaged minimal payload fails: %v", err)
	}
	cases := map[string][]byte{
		"empty":                {},
		"trailing garbage":     append(bytes.Clone(good), 0xde, 0xad),
		"giant string table":   {0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"string past the end":  {1, 9, 'm'},
		"giant record count":   {0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"overlong varint":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"index outside table":  minimal(1, 5),
		"unknown flags":        minimal(6, 4),
		"giant diff count":     minimal(14, 0xff, 0xff, 0x03),
		"truncated diff entry": minimal(14, 1, 0),
		// The encoder writes diffs in the order a record holds them;
		// the decoder accepts strictly ascending signals only.
		"descending diffs": withDiffs(t2, s),
		"duplicate diff":   withDiffs(s, s),
	}
	for i := range good {
		cases[fmt.Sprintf("cut at %d", i)] = good[:i]
	}
	keep := []Record{{Type: "run", Job: 99}}
	for name, data := range cases {
		got, err := new(RecordDecoder).Decode(keep, data)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if !reflect.DeepEqual(got, keep) {
			t.Errorf("%s: the destination changed to %+v", name, got)
		}
	}
}

// FuzzJournal throws arbitrary bytes behind a valid header at the
// journal loader and asserts its contract: it never panics, never
// allocates beyond a bound linear in the input, and returns either an
// error or a prefix of whole frames — the prefix reloads on its own to
// the same records and length. Run it natively:
//
//	go test ./internal/runner/ -run '^$' -fuzz FuzzJournal -fuzztime 30s
func FuzzJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "journal.bin")
	data, bounds, _ := tornFixture(f, path, JournalHeader{ConfigDigest: "x"})
	hdrLine, frames := data[:bounds[0]], data[bounds[0]:]
	f.Add([]byte{})
	f.Add(bytes.Clone(frames))
	f.Add(bytes.Clone(frames[:len(frames)-3]))
	f.Add(bytes.Clone(frames[:bounds[2]-bounds[0]+5]))
	flipped := bytes.Clone(frames)
	flipped[bounds[1]-bounds[0]+frameHeaderLen+2] ^= 0xff
	f.Add(flipped)
	f.Add(append(bytes.Clone(frames), make([]byte, 64)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 0, 0, 0, 0})
	// A sound frame whose record lists its diffs out of order.
	descending := newRecord(3, "bitflip:7", sampleRunRecord())
	descending.Diffs = trace.Diffs{{Signal: "t", First: 1, Last: 1, Count: 1}, descending.Diffs[0]}
	f.Add(appendFrame(nil, new(RecordEncoder), []Record{descending}))

	f.Fuzz(func(t *testing.T, tail []byte) {
		in := append(bytes.Clone(hdrLine), tail...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, recs, validLen, err := parseJournal(path, in)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(in)+1<<20); alloc > bound {
			t.Fatalf("loading %d bytes allocated %d, above the bound %d", len(in), alloc, bound)
		}
		if err != nil {
			return
		}
		if validLen < int64(len(hdrLine)) || validLen > int64(len(in)) {
			t.Fatalf("validLen %d outside [%d, %d]", validLen, len(hdrLine), len(in))
		}
		_, again, againLen, err := parseJournal(path, in[:validLen])
		if err != nil || againLen != validLen || !reflect.DeepEqual(again, recs) {
			t.Fatalf("the accepted prefix of %d bytes reloads as %d records, validLen %d, err %v; first load had %d records",
				validLen, len(again), againLen, err, len(recs))
		}
	})
}

func TestJournalTornHeaderStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	if err := os.WriteFile(path, []byte(`{"type":"head`), 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, recs, _, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != "" || len(recs) != 0 {
		t.Fatalf("torn header not treated as empty: %+v, %d records", hdr, len(recs))
	}
	w, err := openJournal(path, JournalHeader{ConfigDigest: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	hdr, _, _, err = loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ConfigDigest != "abc" {
		t.Errorf("journal not restarted after torn header: %+v", hdr)
	}
}

func TestJournalMissingFile(t *testing.T) {
	hdr, recs, _, err := loadJournal(filepath.Join(t.TempDir(), "absent.bin"))
	if err != nil || hdr.Type != "" || recs != nil {
		t.Errorf("missing journal: hdr=%+v recs=%v err=%v", hdr, recs, err)
	}
}
