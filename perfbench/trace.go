package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"propane/internal/campaign"
	"propane/internal/distrib"
	"propane/internal/store"
)

// span is one timed interval at a layer boundary. Spans of one campaign
// share its Campaign ID; Parent is the ID of the span that caused it (0
// for a root).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Campaign string  `json:"campaign,omitempty"`
	Name     string  `json:"name"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
}

// tracer keeps a traced run's spans, counts and sample distributions in
// memory; write saves the spans when the run ends. Every method is a
// no-op on a nil *tracer, which is what untraced runs carry.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	nextID  int
	spans   []span
	roots   map[string]int // campaign ID → root span ID
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		roots:   make(map[string]int),
		counts:  make(map[string]float64),
		samples: make(map[string][]float64),
	}
}

// root reserves the root span ID of a campaign, so spans recorded
// while it runs can name it as their parent; finish it with record.
func (t *tracer) root(campaign string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.roots[campaign] = t.nextID
	return t.nextID
}

// record adds a finished span. id is a reserved root ID, or 0 to
// allocate one; parent 0 attaches the span to its campaign's root.
func (t *tracer) record(id, parent int, campaign, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
		if parent == 0 {
			parent = t.roots[campaign]
		}
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Campaign: campaign, Name: name,
		StartS: start.Sub(t.t0).Seconds(), EndS: end.Sub(t.t0).Seconds(),
	})
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

func (t *tracer) quantile(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.samples[name], q)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// rpcNames maps the fleet protocol's paths to their span names.
var rpcNames = map[string]string{
	distrib.PathLease:     "distrib.lease",
	distrib.PathRecords:   "distrib.records",
	distrib.PathHeartbeat: "distrib.heartbeat",
	distrib.PathComplete:  "distrib.complete",
}

// rpcMeter wraps a coordinator's or service's handler. It always marks
// the fleet ready once `want` lease requests have arrived (each agent
// leases once it is up). With probe set it answers those leases "done",
// so a set-up-only start shuts its agents down at once. With a tracer
// it times every fleet RPC and campaign submission, and notes each
// campaign's first and last record upload.
type rpcMeter struct {
	next  http.Handler
	tr    *tracer
	probe bool
	want  int64

	leases    atomic.Int64
	ready     chan struct{}
	readyOnce sync.Once

	mu        sync.Mutex
	firstRecs map[string]time.Time
	lastRecs  map[string]time.Time
}

func newRPCMeter(next http.Handler, tr *tracer, agents int, probe bool) *rpcMeter {
	return &rpcMeter{
		next: next, tr: tr, probe: probe, want: int64(agents),
		ready:     make(chan struct{}),
		firstRecs: make(map[string]time.Time),
		lastRecs:  make(map[string]time.Time),
	}
}

func (m *rpcMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.URL.Path == distrib.PathLease && m.leases.Add(1) == m.want {
		m.readyOnce.Do(func() { close(m.ready) })
	}
	if m.probe && r.URL.Path == distrib.PathLease {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(distrib.LeaseResponse{Status: distrib.StatusDone})
		return
	}
	if m.tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	m.next.ServeHTTP(sw, r)
	end := time.Now()
	ms := float64(end.Sub(start).Microseconds()) / 1e3
	camp := r.Header.Get(distrib.HeaderCampaign)
	if name, ok := rpcNames[r.URL.Path]; ok {
		m.tr.add(name+"_rpcs", 1)
		m.tr.sample(name+"_ms", ms)
		m.tr.record(0, 0, camp, name, start, end)
		if r.URL.Path == distrib.PathRecords {
			m.tr.add("distrib.records_bytes", float64(r.ContentLength))
			m.mu.Lock()
			if _, ok := m.firstRecs[camp]; !ok {
				m.firstRecs[camp] = start
			}
			m.lastRecs[camp] = end
			m.mu.Unlock()
		}
		return
	}
	if r.Method == http.MethodPost {
		m.tr.sample("service.submit_ms", ms)
		if sw.status == http.StatusTooManyRequests {
			m.tr.add("service.refused", 1)
		}
	}
}

// awaitLeases blocks until m has seen every agent's first lease
// request. A probed agent leaves right after its lease, so there an
// agent exiting without error is expected.
func awaitLeases(m *rpcMeter, agents chan error) error {
	select {
	case <-m.ready:
		return nil
	case err := <-agents:
		agents <- err // the caller's shutdown collects it again
		if err == nil && m.probe {
			select {
			case <-m.ready:
				return nil
			case <-time.After(time.Minute):
			}
		}
		return fmt.Errorf("agent exited before leasing: %v", err)
	}
}

// recordWindow returns a campaign's first and last record upload.
func (m *rpcMeter) recordWindow(camp string) (first, last time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	first, ok = m.firstRecs[camp]
	return first, m.lastRecs[camp], ok
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// timedMemo is the agents' persistent memo store with every get and
// put counted and timed.
type timedMemo struct {
	st *store.Store
	tr *tracer
}

func (m timedMemo) GetMemo(scope string, k campaign.MemoKey) (campaign.MemoEntry, bool) {
	start := time.Now()
	e, ok := m.st.GetMemo(scope, k)
	m.tr.sample("store.get_us", float64(time.Since(start).Nanoseconds())/1e3)
	m.tr.add("store.gets", 1)
	if ok {
		m.tr.add("store.hits", 1)
	}
	return e, ok
}

func (m timedMemo) PutMemo(scope string, k campaign.MemoKey, e campaign.MemoEntry) {
	start := time.Now()
	m.st.PutMemo(scope, k, e)
	m.tr.sample("store.put_us", float64(time.Since(start).Nanoseconds())/1e3)
	m.tr.add("store.puts", 1)
}
