// Package wal is the one durable log format: a JSON header line naming
// the log's kind and version, then frames of a payload's length, the
// length's complement and the payload's CRC-32C (little-endian uint32s)
// followed by the payload. The record journal and the service,
// assignment and memo logs all load by one rule: a torn tail — a short
// frame header, a payload running past the end or a zero-filled tail,
// what a killed process leaves — ends the log and is cut before the
// next append; a damaged complete frame is corruption and an error. The
// complement makes a damaged length in a middle frame read as
// corruption, not as a torn tail that would cut every later frame.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// FrameHeaderLen is a frame's fixed prefix.
const FrameHeaderLen = 12

// ErrVersion reports a log of another version than its reader wants.
var ErrVersion = errors.New("unsupported log version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is what every log's header line carries. The record journal's
// kind is ""; its header has fields of its own (runner.JournalHeader).
type Header struct {
	Type    string `json:"type"` // "header"
	Kind    string `json:"kind,omitempty"`
	Version int    `json:"version"`
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, FrameHeaderLen)...), payload...)
	return SealFrame(dst, start)
}

// SealFrame fills in the reserved header of the frame at dst[start:],
// whose payload runs to the end of dst: a writer encodes in place.
func SealFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeaderLen:]
	n := uint32(len(payload))
	binary.LittleEndian.PutUint32(dst[start:], n)
	binary.LittleEndian.PutUint32(dst[start+4:], ^n)
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Load reads the log at path and walks it (Walk). A missing file is an
// empty log.
func Load(path string, want Header, hdr any, visit func(payload []byte) error) (validLen int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	return Walk(path, data, want, hdr, visit)
}

// Walk checks data, the bytes of the log at path, and hands each whole
// frame's payload to visit in order. The header line must name want's
// kind and version; unless nil, hdr receives it too, refused or not. A
// file torn inside its header line is an empty log. A frame failing its
// checks or visit is an error, after visit saw every frame before it.
// validLen is the length of the header and whole frames (see Open).
func Walk(path string, data []byte, want Header, hdr any, visit func(payload []byte) error) (validLen int64, err error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return 0, nil
	}
	var got Header
	if json.Unmarshal(data[:nl], &got) != nil || got.Type != "header" ||
		(hdr != nil && json.Unmarshal(data[:nl], hdr) != nil) {
		return 0, fmt.Errorf("wal: %s has no valid header", path)
	}
	switch {
	case got.Kind != want.Kind:
		return 0, fmt.Errorf("wal: %s is a %q log, not %q", path, got.Kind, want.Kind)
	case got.Version != want.Version:
		return 0, fmt.Errorf("wal: %s is version %d, want %d: %w", path, got.Version, want.Version, ErrVersion)
	}
	pos := nl + 1
	for pos < len(data) {
		frame := data[pos:]
		if len(frame) < FrameHeaderLen {
			break // torn inside the frame header
		}
		n := binary.LittleEndian.Uint32(frame)
		if binary.LittleEndian.Uint32(frame[4:]) != ^n {
			if len(bytes.TrimLeft(frame, "\x00")) == 0 {
				break // zero-filled: the file grew but its data never landed
			}
			return 0, fmt.Errorf("wal: %s corrupt at byte %d: damaged frame length", path, pos)
		}
		if uint64(n) > uint64(len(frame)-FrameHeaderLen) {
			break // torn inside the payload
		}
		payload := frame[FrameHeaderLen : FrameHeaderLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[8:]) {
			return 0, fmt.Errorf("wal: %s corrupt at byte %d: frame checksum mismatch", path, pos)
		}
		if err := visit(payload); err != nil {
			return 0, fmt.Errorf("wal: %s corrupt at byte %d: %w", path, pos, err)
		}
		pos += FrameHeaderLen + int(n)
	}
	return int64(pos), nil
}

// Log appends frames to one log file. Callers serialise.
type Log struct {
	f         *os.File
	syncEvery int
	unsynced  int
	buf       []byte
}

// Open opens the log at path for appending, cutting it to validLen,
// what Walk accepted; at 0 it restarts as hdr's JSON line. With
// syncEvery > 0 the log fsyncs every syncEvery appended frames and on
// Close; otherwise only when asked (Sync).
func Open(path string, hdr any, validLen int64, syncEvery int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{f: f, syncEvery: syncEvery}
	if err = f.Truncate(validLen); err == nil && validLen == 0 {
		var line []byte
		if line, err = json.Marshal(hdr); err == nil {
			err = l.Write(append(line, '\n'), 0)
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: starting %s: %w", path, err)
	}
	return l, nil
}

// Append writes payload as one frame.
func (l *Log) Append(payload []byte) error {
	l.buf = AppendFrame(l.buf[:0], payload)
	return l.Write(l.buf, 1)
}

// Write writes frames, whole frames built with AppendFrame or
// SealFrame, in one Write call — so a crash tears at most the last of
// them — and adds n to the count toward the next sync.
func (l *Log) Write(frames []byte, n int) error {
	if _, err := l.f.Write(frames); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", l.f.Name(), err)
	}
	if l.syncEvery <= 0 {
		return nil
	}
	if l.unsynced += n; l.unsynced >= l.syncEvery {
		return l.Sync()
	}
	return nil
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error {
	l.unsynced = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.f.Name(), err)
	}
	return nil
}

// Close closes the log, syncing it first when it syncs on its own.
func (l *Log) Close() error {
	var err error
	if l.syncEvery > 0 {
		err = l.Sync()
	}
	return errors.Join(err, l.f.Close())
}
