package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	tr := NewTrace([]string{"pulscnt", "SetValue", "TOC2"})
	for i := 0; i < 100; i++ {
		tr.Append(map[string]uint16{
			"pulscnt":  uint16(i),
			"SetValue": uint16(i * 3),
			"TOC2":     uint16(65535 - i),
		})
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(got.Signals(), tr.Signals()) {
		t.Errorf("signals = %v, want %v", got.Signals(), tr.Signals())
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
	}
	for _, sig := range tr.Signals() {
		a, _ := tr.Samples(sig)
		b, _ := got.Samples(sig)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("samples of %s differ", sig)
		}
	}
	// A decoded golden run is directly comparable.
	diffs, err := Compare(tr, got)
	if err != nil {
		t.Fatalf("Compare after round-trip: %v", err)
	}
	for sig, d := range diffs {
		if d.Differs() {
			t.Errorf("round-trip introduced deviation in %s: %+v", sig, d)
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	tr := NewTrace(nil)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.Len() != 0 || len(got.Signals()) != 0 {
		t.Errorf("empty round-trip: %d signals, %d samples", len(got.Signals()), got.Len())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("PT")},
		{"wrong magic", []byte("NOPExxxxxxxxxxxxxxx")},
		{"truncated header", []byte("PTRC\x01")},
		{"bad version", append([]byte("PTRC"), 0x63, 0x00, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"huge dimensions", append([]byte("PTRC"), 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadTrace(bytes.NewReader(tt.data)); err == nil {
				t.Error("ReadTrace accepted garbage")
			}
		})
	}
}

func TestCodecRejectsTruncatedBody(t *testing.T) {
	tr := NewTrace([]string{"a", "b"})
	tr.Append(map[string]uint16{"a": 1, "b": 2})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) / 2, 15} {
		if _, err := ReadTrace(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("ReadTrace accepted trace truncated at %d bytes", cut)
		}
	}
}

// TestCodecRoundTripProperty: arbitrary sample sets survive the codec.
func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(a, b []uint16) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		tr := NewTrace([]string{"s1", "s2"})
		for i := range a {
			tr.Append(map[string]uint16{"s1": a[i], "s2": b[i]})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		ga, _ := got.Samples("s1")
		gb, _ := got.Samples("s2")
		wa, _ := tr.Samples("s1")
		wb, _ := tr.Samples("s2")
		return reflect.DeepEqual(ga, wa) && reflect.DeepEqual(gb, wb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pinnedTraceSHA256 is the SHA-256 of pinnedTrace's encoding. Golden
// digests hash this encoding and feed every campaign config digest, so
// a change to a single encoded byte would orphan existing journals.
const pinnedTraceSHA256 = "2384c018cdac1005ff584252d8394b6cecae28d53b76d5ac40226a7fd62f4007"

// pinnedTrace is a fixed multi-signal trace: one all-zero series (x),
// small values and full-range, wrapping values.
func pinnedTrace() *Trace {
	tr := NewTrace([]string{"pulscnt", "SetValue", "TOC2", "x"})
	for i := 0; i < 1000; i++ {
		tr.Append(map[string]uint16{
			"pulscnt":  uint16(i * 7919),
			"SetValue": uint16(i / 3),
			"TOC2":     uint16(65535 - i*i),
		})
	}
	return tr
}

func TestTraceWriteToPinnedDigest(t *testing.T) {
	h := sha256.New()
	n, err := pinnedTrace().WriteTo(h)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if want := int64(4 + 2 + 4 + 4 + 4*(2+1000*2) + len("pulscntSetValueTOC2x")); n != want {
		t.Errorf("WriteTo reported %d bytes, want %d", n, want)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedTraceSHA256 {
		t.Errorf("encoding digest = %s, want %s", got, pinnedTraceSHA256)
	}
}

// TestCodecCorruptHeaderAllocatesLittle: a few-byte file whose header
// claims a huge trace is rejected without allocating for the claim —
// the total sample count is bounded, and the buffer grows only as
// samples actually arrive.
func TestCodecCorruptHeaderAllocatesLittle(t *testing.T) {
	for _, dims := range [][2]uint32{{1 << 26, 1 << 26}, {1, 1 << 26}, {1 << 13, 1 << 13}} {
		data := append([]byte("PTRC"), 0x01, 0x00)
		data = binary.LittleEndian.AppendUint32(data, dims[0])
		data = binary.LittleEndian.AppendUint32(data, dims[1])
		data = append(data, 0x01, 0x00, 'a', 0x07, 0x00, 0x08)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%d×%d: ReadTrace accepted a truncated trace", dims[0], dims[1])
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%d×%d: ReadTrace allocated %d bytes for a %d-byte file", dims[0], dims[1], grew, len(data))
		}
	}
}
