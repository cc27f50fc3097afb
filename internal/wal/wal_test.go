package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var (
	serviceFormat = Header{Type: "header", Kind: "service", Version: 1}
	memoFormat    = Header{Type: "header", Kind: "memo", Version: 1}

	// servicePayloads and memoPayloads are frames as the service log
	// and the store's memo log hold them.
	servicePayloads = []string{
		`{"op":"submit","id":"c0001","tenant":"tenant-a","instance":"reduced","tier":"quick","jobs":624,"time_ms":1700000000000}`,
		`{"op":"activate","id":"c0001","time_ms":1700000000100}`,
		`{"op":"done","id":"c0001","digest":"5f1e0c2a","time_ms":1700000001200}`,
	}
	memoPayloads = []string{
		`{"op":"put","key":"0a1b2c3d4e5f60718293a4b5c6d7e8f9","entry":{"Outcome":"deviation","FiredAt":42,"Diffs":{"out":{"Signal":"out","First":2,"Last":92,"Count":3}}}}`,
		`{"op":"put","key":"1a1b2c3d4e5f60718293a4b5c6d7e8f9","entry":{"Outcome":"ok","FiredAt":40}}`,
		`{"op":"ref","name":"campaign/c0001/report.md","digest":"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}`,
	}
)

// writeLog writes a log of payloads through Open and Append and
// returns its bytes and the offset where each frame ends (the first
// entry is the header's end).
func writeLog(t testing.TB, path string, format Header, payloads []string) (data []byte, ends []int) {
	t.Helper()
	l, err := Open(path, format, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	ends = []int{bytes.IndexByte(data, '\n') + 1}
	for _, p := range payloads {
		ends = append(ends, ends[len(ends)-1]+FrameHeaderLen+len(p))
	}
	if ends[len(ends)-1] != len(data) {
		t.Fatalf("log of %d bytes, want frames ending at %v", len(data), ends)
	}
	return data, ends
}

// load walks the log at path and returns its payloads.
func load(path string, format Header) (payloads []string, validLen int64, err error) {
	validLen, err = Load(path, format, nil, func(p []byte) error {
		payloads = append(payloads, string(p))
		return nil
	})
	return payloads, validLen, err
}

// TestOpenCutsTornTail cuts a service log at every byte inside its
// last frame: loading keeps the earlier frames, and a reopened log
// cuts the torn frame before appending, so the next load sees every
// frame.
func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "service.bin")
	data, ends := writeLog(t, path, serviceFormat, servicePayloads)
	last := ends[len(ends)-2]
	for off := last; off < len(data); off++ {
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got, validLen, err := load(path, serviceFormat)
		if err != nil || validLen != int64(last) || !reflect.DeepEqual(got, servicePayloads[:2]) {
			t.Fatalf("cut at %d: %d frames, validLen %d, err %v; want 2 frames ending at %d", off, len(got), validLen, err, last)
		}
		l, err := Open(path, serviceFormat, validLen, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte(servicePayloads[2])); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := load(path, serviceFormat); err != nil || !reflect.DeepEqual(got, servicePayloads) {
			t.Fatalf("cut at %d: the healed log loads %q, %v", off, got, err)
		}
	}
}

// TestWalkRefusesDamage pins the other half of the rule on a memo log:
// a damaged byte anywhere in a complete frame, a header of another kind
// or version, and a missing header are errors; a file torn inside its
// header line is an empty log.
func TestWalkRefusesDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.bin")
	data, ends := writeLog(t, path, memoFormat, memoPayloads)
	visit := func([]byte) error { return nil }
	for i := ends[1]; i < ends[2]; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x01
		if _, err := Walk(path, bad, memoFormat, nil, visit); err == nil {
			t.Errorf("byte %d of the middle frame damaged: no error", i)
		}
	}
	if _, err := Walk(path, data, serviceFormat, nil, visit); err == nil || !strings.Contains(err.Error(), `"memo"`) {
		t.Errorf("memo log read as a service log: %v", err)
	}
	newer := Header{Type: "header", Kind: "memo", Version: 2}
	if _, err := Walk(path, data, newer, nil, visit); !errors.Is(err, ErrVersion) {
		t.Errorf("version 1 log read as version 2: %v, want ErrVersion", err)
	}
	if _, err := Walk(path, []byte("{\"op\":\"put\"}\n"), memoFormat, nil, visit); err == nil {
		t.Error("a JSON-lines file loaded as a log")
	}
	if n, err := Walk(path, data[:ends[0]-1], memoFormat, nil, visit); n != 0 || err != nil {
		t.Errorf("log torn inside its header: validLen %d, %v; want an empty log", n, err)
	}
}

// FuzzLog throws arbitrary frame bytes behind a valid header at the
// shared reader, seeded with a service log and a memo log, and asserts
// its contract: it never panics, allocates at most linearly in the
// input, and returns an error or a prefix of whole frames that reloads
// on its own to the same payloads. Run it natively:
//
//	go test ./internal/wal/ -run '^$' -fuzz FuzzLog -fuzztime 30s
func FuzzLog(f *testing.F) {
	dir := f.TempDir()
	svc, svcEnds := writeLog(f, filepath.Join(dir, "service.bin"), serviceFormat, servicePayloads)
	memo, memoEnds := writeLog(f, filepath.Join(dir, "memo.bin"), memoFormat, memoPayloads)
	hdr := svc[:svcEnds[0]]
	for _, frames := range [][]byte{svc[svcEnds[0]:], memo[memoEnds[0]:]} {
		f.Add(bytes.Clone(frames))
		f.Add(bytes.Clone(frames[:len(frames)-5]))
		flipped := bytes.Clone(frames)
		flipped[FrameHeaderLen+3] ^= 0x04
		f.Add(flipped)
		f.Add(append(bytes.Clone(frames), make([]byte, 40)...))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, tail []byte) {
		in := append(bytes.Clone(hdr), tail...)
		walk := func(data []byte) (payloads [][]byte, validLen int64, err error) {
			validLen, err = Walk("fuzz.bin", data, serviceFormat, nil, func(p []byte) error {
				payloads = append(payloads, p)
				return nil
			})
			return payloads, validLen, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payloads, validLen, err := walk(in)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+1<<16); alloc > bound {
			t.Fatalf("walking %d bytes allocated %d, above the bound %d", len(in), alloc, bound)
		}
		if err != nil {
			return
		}
		if validLen < int64(len(hdr)) || validLen > int64(len(in)) {
			t.Fatalf("validLen %d outside [%d, %d]", validLen, len(hdr), len(in))
		}
		again, againLen, err := walk(in[:validLen])
		if err != nil || againLen != validLen || !reflect.DeepEqual(again, payloads) {
			t.Fatalf("the accepted prefix of %d bytes reloads as %d frames, validLen %d, err %v; first walk had %d",
				validLen, len(again), againLen, err, len(payloads))
		}
	})
}
