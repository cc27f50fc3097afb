package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The on-disk trace format mirrors PROPANE's workflow of persisting
// Golden Run and injection-run traces for offline comparison:
//
//	magic   [4]byte  "PTRC"
//	version uint16   (1)
//	signals uint32   number of signals
//	samples uint32   samples per signal
//	per signal:
//	    nameLen uint16, name [nameLen]byte (UTF-8)
//	    values  [samples]uint16
//
// All integers are little-endian. Signals are stored in the trace's
// sorted order, each as its whole series: WriteTo transposes the
// trace's tick rows into columns and ReadTrace transposes them back.

var traceMagic = [4]byte{'P', 'T', 'R', 'C'}

const traceVersion = 1

// maxTraceDim bounds the decoded signal count and the total sample
// count (signals × samples) to keep a corrupted header from provoking
// huge allocations.
const maxTraceDim = 1 << 26

// WriteTo serialises the trace. It returns the number of bytes
// written. Each signal's column is gathered into one buffer and
// written in one call; golden-digest hashing runs this once per test
// case.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	width := len(t.signals)
	buf := append(make([]byte, 0, 64+2*t.Len()), traceMagic[:]...)
	buf = le.AppendUint16(buf, traceVersion)
	buf = le.AppendUint32(buf, uint32(len(t.signals)))
	buf = le.AppendUint32(buf, uint32(t.Len()))
	written, err := w.Write(buf)
	n := int64(written)
	for c, sig := range t.signals {
		if err != nil {
			return n, err
		}
		if len(sig) > 0xFFFF {
			return n, fmt.Errorf("trace: signal name %q too long", sig[:32])
		}
		buf = append(le.AppendUint16(buf[:0], uint16(len(sig))), sig...)
		for at := c; at < len(t.rows); at += width {
			buf = le.AppendUint16(buf, t.rows[at])
		}
		written, err = w.Write(buf)
		n += int64(written)
	}
	return n, err
}

// ReadTrace deserialises a trace written by WriteTo. A trace that
// names signals but holds no samples is refused: no recording is that
// short, and a reader would index its first sample.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("trace: not a PTRC trace file")
	}
	version, err := readUint16(br)
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nSignals, err := readUint32(br)
	if err != nil {
		return nil, err
	}
	nSamples, err := readUint32(br)
	if err != nil {
		return nil, err
	}
	if nSignals > maxTraceDim || uint64(nSignals)*uint64(nSamples) > maxTraceDim {
		return nil, fmt.Errorf("trace: implausible dimensions %d×%d", nSignals, nSamples)
	}
	if nSignals > 0 && nSamples == 0 {
		return nil, fmt.Errorf("trace: %d signals but no samples", nSignals)
	}

	// The columns are read into one buffer that grows as samples
	// arrive, never sized from the header alone, and transposed into
	// rows once complete.
	tr := &Trace{}
	var cols []uint16
	for i := uint32(0); i < nSignals; i++ {
		nameLen, err := readUint16(br)
		if err != nil {
			return nil, err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("trace: reading signal name: %w", err)
		}
		name := string(nameBuf)
		if i > 0 && name <= tr.signals[i-1] {
			return nil, fmt.Errorf("trace: signal names out of order (%q after %q)", name, tr.signals[i-1])
		}
		for j := uint32(0); j < nSamples; j++ {
			v, err := readUint16(br)
			if err != nil {
				return nil, fmt.Errorf("trace: reading samples of %q: %w", name, err)
			}
			cols = append(cols, v)
		}
		tr.signals = append(tr.signals, name)
	}
	tr.rows = make([]uint16, len(cols))
	for c := range tr.signals {
		for j, v := range cols[c*int(nSamples) : (c+1)*int(nSamples)] {
			tr.rows[j*len(tr.signals)+c] = v
		}
	}
	return tr, nil
}

// The integer readers take the concrete buffered reader and move
// bytes one at a time: handing a stack buffer to an io.Reader
// interface makes it escape, one heap allocation per sample.

func readUint16(r *bufio.Reader) (uint16, error) {
	b0, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	b1, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return uint16(b0) | uint16(b1)<<8, nil
}

func readUint32(r *bufio.Reader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}
