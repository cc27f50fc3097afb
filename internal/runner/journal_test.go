package runner

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"propane/internal/campaign"
	"propane/internal/inject"
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
		Diffs: map[string]trace.Diff{
			"SetValue": {Signal: "SetValue", First: 2502, Last: 2900, Count: 41},
			"OutValue": {Signal: "OutValue", First: -1, Last: -1, Count: 0},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := sampleRunRecord()
	jr, err := newRecord(17, rec)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Job != 17 || jr.Type != "run" {
		t.Errorf("record header wrong: %+v", jr)
	}
	if _, ok := jr.Diffs["OutValue"]; ok {
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
	if d := back.Diffs["SetValue"]; d != rec.Diffs["SetValue"] {
		t.Errorf("diff %+v != %+v", d, rec.Diffs["SetValue"])
	}
}

func TestJournalAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	hdr := header{Type: "header", Version: journalVersion, Instance: "x", Tier: "quick", ConfigDigest: "abc"}
	w, err := openJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		jr, err := newRecord(i, sampleRunRecord())
		if err != nil {
			t.Fatal(err)
		}
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

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	hdr := header{Type: "header", Version: journalVersion, ConfigDigest: "abc"}
	w, err := openJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		jr, _ := newRecord(i, sampleRunRecord())
		if err := w.AppendBatch([]Record{jr}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last record: the torn line must be discarded, the
	// complete prefix kept.
	torn := data[:len(data)-9]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, validLen, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("loaded %d records from torn journal, want 2", len(recs))
	}
	if validLen <= 0 || validLen >= int64(len(torn)) || torn[validLen-1] != '\n' {
		t.Errorf("validLen %d does not mark the end of the complete prefix (%d bytes total)", validLen, len(torn))
	}

	// Corruption mid-file is an error, not silently skipped.
	lines := strings.Split(string(data), "\n")
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadJournal(path); err == nil {
		t.Error("loadJournal accepted mid-file corruption")
	}
}

func TestJournalTornHeaderStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
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
	w, err := openJournal(path, header{Type: "header", Version: journalVersion, ConfigDigest: "abc"})
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
	hdr, recs, _, err := loadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || hdr.Type != "" || recs != nil {
		t.Errorf("missing journal: hdr=%+v recs=%v err=%v", hdr, recs, err)
	}
}
