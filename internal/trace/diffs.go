package trace

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
)

// Diffs is a run's Golden Run Comparison result in its sparse form:
// one Diff per deviating signal, in ascending signal-name order, each
// signal once; a signal without an entry matched the golden run
// everywhere. StreamComparator.DeviatingDiffs allocates it once per
// deviating run, and aggregation, the memo store, the journal and the
// wire all share that one slice, so it is never modified once built.
type Diffs []Diff

// Get returns the entry of signal sig; ok is false when sig has none.
// A run's slice holds at most a few dozen entries, so the binary
// search costs a handful of string compares.
func (ds Diffs) Get(sig string) (d Diff, ok bool) {
	i, ok := slices.BinarySearchFunc(ds, sig, func(d Diff, sig string) int { return strings.Compare(d.Signal, sig) })
	if !ok {
		return Diff{}, false
	}
	return ds[i], true
}

// Ascending reports whether the signals are in strictly ascending
// name order — the order Get relies on, duplicates refused.
func (ds Diffs) Ascending() bool {
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Signal >= ds[i].Signal {
			return false
		}
	}
	return true
}

// Deviating returns the entries that differ: ds itself when every
// entry does, a filtered copy when some do not, nil when none does.
func (ds Diffs) Deviating() Diffs {
	n := 0
	for _, d := range ds {
		if d.Differs() {
			n++
		}
	}
	switch n {
	case len(ds):
		return ds
	case 0:
		return nil
	}
	out := make(Diffs, 0, n)
	for _, d := range ds {
		if d.Differs() {
			out = append(out, d)
		}
	}
	return out
}

// MarshalJSON writes the bytes encoding/json writes for a
// map[string]Diff of the same entries — an object keyed by signal,
// keys ascending, each value a plain Diff — without building the map.
// Persisted memo entries (campaign.MemoEntry) depend on these bytes.
func (ds Diffs) MarshalJSON() ([]byte, error) {
	if ds == nil {
		return []byte("null"), nil
	}
	b := append(make([]byte, 0, 72*len(ds)+2), '{')
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, d.Signal)
		b = append(b, `:{"Signal":`...)
		b = appendJSONString(b, d.Signal)
		b = append(b, `,"First":`...)
		b = strconv.AppendInt(b, int64(d.First), 10)
		b = append(b, `,"Last":`...)
		b = strconv.AppendInt(b, int64(d.Last), 10)
		b = append(b, `,"Count":`...)
		b = strconv.AppendInt(b, int64(d.Count), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendJSONString appends s quoted as encoding/json quotes it.
// Printable ASCII that encoding/json leaves alone is copied; anything
// else takes encoding/json's own path, HTML escaping included.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON decodes the object MarshalJSON writes into ascending
// order, each entry's Signal taken from its key.
func (ds *Diffs) UnmarshalJSON(data []byte) error {
	var m map[string]Diff
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*ds = nil
		return nil
	}
	out := make(Diffs, 0, len(m))
	for sig, d := range m {
		d.Signal = sig
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b Diff) int { return strings.Compare(a.Signal, b.Signal) })
	*ds = out
	return nil
}
