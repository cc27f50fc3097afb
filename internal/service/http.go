package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"propane/internal/distrib"
	"propane/internal/runner"
)

// Service API paths (the worker protocol paths are distrib's).
const (
	PathCampaigns = "/v1/campaigns"
	PathStatus    = "/status"
	PathMetrics   = "/metrics"
)

// maxSubmitBody bounds a submission (the inline topology document is
// the only big part; real documents are kilobytes).
const maxSubmitBody = 4 << 20

// Event is one /events frame: the campaign's state, the live fleet
// metrics while it executes, and the final assembled metrics once
// done.
type Event struct {
	Campaign CampaignInfo     `json:"campaign"`
	Metrics  *distrib.Metrics `json:"metrics,omitempty"`
	Final    *runner.Metrics  `json:"final,omitempty"`
}

// TenantStatus is one tenant's footprint in Status.
type TenantStatus struct {
	Queued       int   `json:"queued"`
	Active       int   `json:"active"`
	JobsInFlight int   `json:"jobs_in_flight"`
	Weight       int   `json:"weight"`
	GrantedJobs  int64 `json:"granted_jobs"`
}

// Status is the service-level /status document.
type Status struct {
	QueueDepth int                     `json:"queue_depth"`
	Active     int                     `json:"active"`
	Done       int                     `json:"done"`
	Failed     int                     `json:"failed"`
	Crashed    bool                    `json:"crashed,omitempty"`
	Campaigns  []CampaignInfo          `json:"campaigns"`
	Tenants    map[string]TenantStatus `json:"tenants"`
	// Prepares counts the golden passes (campaign preparations) this
	// process ran; Served counts the repeats it served from a finished
	// campaign. An in-process repeat adds to Served only.
	Prepares int `json:"prepares"`
	Served   int `json:"served"`
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// gate answers 503 for a crashed service (the chaos "dead process"
// state) and reports whether the request may proceed.
func (s *Service) gate(w http.ResponseWriter) bool {
	s.mu.Lock()
	dead := s.crashed
	s.mu.Unlock()
	if dead {
		httpError(w, http.StatusServiceUnavailable, "service_crashed",
			"service crashed at a chaos crash point; awaiting resume")
		return false
	}
	return true
}

// readBody reads a bounded body and verifies its content digest when
// the worker client attached one (wire-damage rejection, mirroring
// the coordinator's own POST hardening).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, distrib.CodeBodyDigest, "reading request body: %v", err)
		return nil, false
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "", "request body exceeds %d bytes", limit)
		return nil, false
	}
	if want := r.Header.Get(distrib.HeaderBodyDigest); want != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			httpError(w, http.StatusBadRequest, distrib.CodeBodyDigest,
				"request body digest %s does not match header %s — body damaged in flight", got, want)
			return nil, false
		}
	}
	return body, true
}

// Handler returns the service's HTTP API: the tenant-facing campaign
// endpoints plus the fleet-facing worker protocol.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathCampaigns, func(w http.ResponseWriter, r *http.Request) {
		if !s.gate(w) {
			return
		}
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			writeJSON(w, s.Campaigns())
		default:
			httpError(w, http.StatusMethodNotAllowed, "", "POST or GET only")
		}
	})
	mux.HandleFunc(PathCampaigns+"/", s.handleCampaignSubtree)
	mux.HandleFunc(distrib.PathLease, s.handleLease)
	mux.HandleFunc(distrib.PathRecords, s.forward)
	mux.HandleFunc(distrib.PathHeartbeat, s.forward)
	mux.HandleFunc(distrib.PathComplete, s.forward)
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	})
	mux.HandleFunc(PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Metrics())
	})
	return mux
}

// Server wraps the API in the fabric's hardened HTTP server. The
// /events stream bypasses the handler deadline — it is the one
// legitimately long-lived response — while every other endpoint keeps
// the coordinator-grade timeout.
func (s *Service) Server() *http.Server {
	h := s.Handler()
	srv := distrib.NewServer(h)
	wrapped := srv.Handler
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, PathCampaigns+"/") && strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r)
			return
		}
		wrapped.ServeHTTP(w, r)
	})
	return srv
}

// handleSubmit admits one campaign submission.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSubmitBody)
	if !ok {
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "", "decoding submission: %v", err)
		return
	}
	info, err := s.Submit(r.Header.Get(distrib.HeaderTenant), req)
	if err != nil {
		var aerr *AdmissionError
		if errors.As(err, &aerr) {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(aerr.RetryAfter.Seconds())))
			httpError(w, http.StatusTooManyRequests, aerr.Code, "%s", aerr.Reason)
			return
		}
		httpError(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(info)
}

// handleCampaignSubtree routes /v1/campaigns/{id}[/events|/report].
func (s *Service) handleCampaignSubtree(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, PathCampaigns+"/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		httpError(w, http.StatusNotFound, "", "no campaign id in path")
		return
	}
	switch sub {
	case "":
		ev, ok := s.snapshotEvent(id)
		if !ok {
			httpError(w, http.StatusNotFound, "", "unknown campaign %q", id)
			return
		}
		writeJSON(w, ev)
	case "events":
		s.handleEvents(w, r, id)
	case "report":
		s.handleReport(w, id)
	default:
		httpError(w, http.StatusNotFound, "", "unknown campaign endpoint %q", sub)
	}
}

// snapshotEvent assembles one event frame for a campaign: live
// coordinator metrics while it executes, final assembled metrics once
// done. Coordinator calls happen outside the service lock.
func (s *Service) snapshotEvent(id string) (Event, bool) {
	s.mu.Lock()
	cs := s.campaigns[id]
	if cs == nil {
		s.mu.Unlock()
		return Event{}, false
	}
	ev := Event{Campaign: cs.CampaignInfo}
	coord := cs.coord
	if cs.result != nil {
		final := cs.result.Metrics
		ev.Final = &final
	}
	s.mu.Unlock()
	if coord != nil {
		m := coord.Metrics()
		ev.Metrics = &m
	}
	return ev, true
}

// terminal reports a state no further event will change.
func terminal(state string) bool { return state == StateDone || state == StateFailed }

// handleEvents streams a campaign's progress as server-sent events:
// an "event: metrics" frame every EventInterval while the campaign is
// live, closing with a single "event: done" frame carrying the final
// state. ?once=1 answers one frame and returns — a cheap long-poll
// for clients without SSE plumbing.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	once := r.URL.Query().Get("once") != ""
	ev, ok := s.snapshotEvent(id)
	if !ok {
		httpError(w, http.StatusNotFound, "", "unknown campaign %q", id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	write := func(name string, ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		name := "metrics"
		if terminal(ev.Campaign.State) {
			name = "done"
		}
		if !write(name, ev) || once || name == "done" {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-time.After(s.opts.EventInterval):
		}
		if ev, ok = s.snapshotEvent(id); !ok {
			return
		}
	}
}

// handleReport serves a completed campaign's assembled report — from
// the content-addressed store when one is attached (surviving the
// campaign directory), falling back to the coordinator's artifact.
func (s *Service) handleReport(w http.ResponseWriter, id string) {
	info, ok := s.Campaign(id)
	if !ok {
		httpError(w, http.StatusNotFound, "", "unknown campaign %q", id)
		return
	}
	if info.State != StateDone {
		httpError(w, http.StatusConflict, "", "campaign %s is %s — no report yet", id, info.State)
		return
	}
	if s.opts.Store != nil {
		if dig, ok := s.opts.Store.Ref("campaign/" + id + "/report.md"); ok {
			if data, err := s.opts.Store.GetBlob(dig); err == nil {
				w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
				_, _ = w.Write(data)
				return
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(s.coordDir(id), "report.md"))
	if err != nil {
		httpError(w, http.StatusNotFound, "", "report unavailable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	_, _ = w.Write(data)
}

// handleLease is the shared fleet's lease endpoint: it interleaves
// every active campaign's frontier, granting from the tenant with the
// lowest fair-share deficit whose coordinator has (or can carve) a
// pending unit. With nothing grantable anywhere it long-polls until a
// campaign activates, a unit returns to some pool, the next lease
// expiry, or the poll deadline — the same event-driven contract a
// single coordinator gives its workers, lifted fleet-wide.
func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "", "POST only")
		return
	}
	if !s.gate(w) {
		return
	}
	body, ok := readBody(w, r, 1<<20)
	if !ok {
		return
	}
	var req distrib.LeaseRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "", "decoding lease request: %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "", "lease request names no worker")
		return
	}
	deadline := time.Now().Add(leaseWaitMax)
	for {
		s.mu.Lock()
		if s.crashed {
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "service_crashed",
				"service crashed at a chaos crash point; awaiting resume")
			return
		}
		if s.closed {
			s.mu.Unlock()
			writeJSON(w, distrib.LeaseResponse{Status: distrib.StatusDone})
			return
		}
		cands := s.leaseCandidatesLocked()
		wake := s.leaseWake
		s.mu.Unlock()

		for _, cs := range cands {
			lr, ok := cs.coord.TryLease(req.Worker)
			if !ok {
				continue
			}
			granted := int64(lr.Unit.Jobs() - len(lr.Unit.DoneJobs))
			s.mu.Lock()
			cs.granted += granted
			s.tenantGranted[cs.Tenant] += granted
			s.mu.Unlock()
			writeJSON(w, lr)
			return
		}

		wait := time.Until(deadline)
		for _, cs := range cands {
			if next, ok := cs.coord.NextExpiry(); ok {
				if d := time.Until(next) + 10*time.Millisecond; d < wait {
					wait = d
				}
			}
		}
		if wait <= 0 {
			writeJSON(w, distrib.LeaseResponse{Status: distrib.StatusWait, RetryMs: leaseRetryMs})
			return
		}
		t := time.NewTimer(wait)
		select {
		case <-wake:
		case <-t.C:
		case <-s.done:
		case <-r.Context().Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}

// forward routes a unit-scoped worker RPC (/v1/records,
// /v1/heartbeat, /v1/complete) to the owning campaign's coordinator
// by the X-Propane-Campaign header, body untouched — the coordinator's
// own digest verification and idempotency replay see exactly what the
// worker sent. Every service lease names its campaign and the worker
// echoes it, so a request without the header, or naming no live
// campaign, answers 409, which the worker treats as a revoked lease
// and abandons cleanly.
func (s *Service) forward(w http.ResponseWriter, r *http.Request) {
	if !s.gate(w) {
		return
	}
	id := r.Header.Get(distrib.HeaderCampaign)
	s.mu.Lock()
	var h http.Handler
	if cs := s.campaigns[id]; cs != nil && cs.handler != nil {
		h = cs.handler
	}
	s.mu.Unlock()
	if h == nil {
		httpError(w, http.StatusConflict, "", "no campaign for this request (campaign header %q)", id)
		return
	}
	h.ServeHTTP(w, r)
}

// Status snapshots the service.
func (s *Service) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		QueueDepth: len(s.queue),
		Crashed:    s.crashed,
		Prepares:   s.prepares,
		Served:     s.served,
		Tenants:    make(map[string]TenantStatus),
	}
	for _, id := range s.order {
		cs := s.campaigns[id]
		st.Campaigns = append(st.Campaigns, cs.CampaignInfo)
		t := st.Tenants[cs.Tenant]
		switch cs.State {
		case StateQueued:
			t.Queued++
			t.JobsInFlight += cs.Jobs
		case StateActivating, StateActive:
			st.Active++
			t.Active++
			t.JobsInFlight += cs.Jobs
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
		st.Tenants[cs.Tenant] = t
	}
	for tenant, t := range st.Tenants {
		w := s.opts.TenantWeights[tenant]
		if w <= 0 {
			w = 1
		}
		t.Weight = w
		t.GrantedJobs = s.tenantGranted[tenant]
		st.Tenants[tenant] = t
	}
	return st
}

// Metrics snapshots every campaign that has (or had) a coordinator.
func (s *Service) Metrics() map[string]distrib.Metrics {
	s.mu.Lock()
	coords := make(map[string]*distrib.Coordinator)
	for id, cs := range s.campaigns {
		if cs.coord != nil {
			coords[id] = cs.coord
		}
	}
	s.mu.Unlock()
	out := make(map[string]distrib.Metrics, len(coords))
	for id, coord := range coords {
		out[id] = coord.Metrics()
	}
	return out
}
