// Package distrib turns the single-process campaign runner into a
// horizontally scalable service. An HTTP coordinator carves a registry
// instance (instance × tier, via internal/runner planning) into work
// units — explicit, ascending lists of job indices, sized by the
// measured per-run cost once the first units complete — and hands them
// to worker agents under time-bounded leases. Workers execute their
// unit through the existing supervised, checkpointed, journaled runner
// path locally, heartbeat progress while simulating, and finish each
// unit one way: upload its records (binary-framed, journaled by the
// coordinator with batched writes), then post one completion. The
// coordinator is off the hot path while units execute; it settles a
// unit the moment its last record is journaled. When the record set
// covers the whole job space, the journal reassembles — via
// (*runner.Prepared).Assemble — into a result bit-identical to a
// single-node run.
//
// Endpoints:
//
//	POST /v1/lease      LeaseRequest  → LeaseResponse       (JSON)
//	POST /v1/records    RecordBatch   → BatchResponse       (binary frame)
//	POST /v1/heartbeat  HeartbeatRequest → HeartbeatResponse (JSON)
//	POST /v1/complete   CompleteRequest  → CompleteResponse  (JSON)
//	GET  /status        → Status
//	GET  /metrics       → Metrics
//
// /v1/records takes only the gzip-compressed binary frame
// (ContentTypeBinary, see codec.go); any other Content-Type answers
// 415 and journals nothing. The frame carries the runner's record
// payload, the encoding the coordinator's journal stores too.
//
// A request against an unknown or expired lease fails with HTTP 409;
// the worker abandons the unit (another worker owns it now) and asks
// for new work.
//
// The protocol is hardened against the fault model internal/chaos
// injects (the fabric's own SWIFI campaign):
//
//   - every POST body — JSON or binary — carries a SHA-256 content
//     digest in X-Propane-Body-Digest; a body corrupted or truncated
//     in flight is rejected with 400/"body_digest_mismatch" before any
//     handler state changes, and the client treats that code as
//     retryable (transport damage, not a client bug);
//   - /records and /complete carry an idempotency key in
//     X-Propane-Idempotency-Key (the body digest); a duplicated
//     delivery replays the stored response verbatim instead of
//     re-executing the handler;
//   - a record batch is validated atomically — any invalid or
//     conflicting record (and any undecodable frame) rejects the whole
//     batch with nothing journaled, so a hostile or damaged batch can
//     never partially journal.
package distrib

import "propane/internal/runner"

// Endpoint paths served by Coordinator.Handler.
const (
	PathLease     = "/v1/lease"
	PathRecords   = "/v1/records"
	PathHeartbeat = "/v1/heartbeat"
	PathComplete  = "/v1/complete"
	PathStatus    = "/status"
	PathMetrics   = "/metrics"
)

// Protocol headers.
const (
	// HeaderBodyDigest carries the hex SHA-256 of the request body.
	// The coordinator verifies it before decoding; a mismatch means
	// the body was damaged in flight and the request is rejected with
	// CodeBodyDigest (retryable — the sender's copy is intact).
	HeaderBodyDigest = "X-Propane-Body-Digest"
	// HeaderIdempotencyKey makes a POST replayable: the coordinator
	// stores the response under this key and answers a duplicated
	// delivery from the store without re-executing the handler.
	HeaderIdempotencyKey = "X-Propane-Idempotency-Key"
	// HeaderIdempotentReplay marks a response served from the
	// idempotency store.
	HeaderIdempotentReplay = "X-Propane-Idempotent-Replay"
	// HeaderCampaign routes a unit-scoped request (/v1/records,
	// /v1/heartbeat, /v1/complete) to the owning campaign when one
	// endpoint multiplexes several (internal/service). The worker
	// echoes LeaseResponse.Campaign verbatim; routing reads only this
	// header, so the body — and with it the digest and idempotency
	// keys — is untouched. The service refuses a unit-scoped request
	// without it (409); a single-campaign coordinator (propaned
	// -instance) ignores it.
	HeaderCampaign = "X-Propane-Campaign"
	// HeaderTenant names the submitting tenant on the service's
	// campaign API (admission control quotas are per tenant). Absent
	// means the "default" tenant.
	HeaderTenant = "X-Propane-Tenant"
)

// Machine-readable error codes carried in errorResponse.Code.
const (
	// CodeBodyDigest: the body did not match its digest header —
	// damaged in flight; retry with the intact copy.
	CodeBodyDigest = "body_digest_mismatch"
	// CodeCrashed: a chaos crash point fired and the coordinator is
	// "dead" pending restart; retryable.
	CodeCrashed = "coordinator_crashed"
	// CodeTimeout: the per-handler deadline elapsed; retryable.
	CodeTimeout = "handler_timeout"
)

// LeaseRequest asks the coordinator for a work unit.
type LeaseRequest struct {
	// Worker names the requesting agent (stable across its restarts,
	// unique within the fleet).
	Worker string `json:"worker"`
}

// Lease-response statuses.
const (
	// StatusUnit: a work unit is attached — run it.
	StatusUnit = "unit"
	// StatusWait: every unit is leased or done but the campaign is not
	// complete — poll again after RetryMs.
	StatusWait = "wait"
	// StatusDone: the campaign is complete — the worker may exit.
	StatusDone = "done"
)

// WorkUnit is one lease-bounded slice of the campaign: an ascending
// list of job indices into the registry instance's deterministic job
// enumeration. Lists are claimed on demand — the next unjournaled jobs
// for a full-matrix campaign, the adaptive planner's frontier
// otherwise — sized by the measured per-run cost once the first units
// complete, so a crash/hang-heavy campaign gets small units (no
// straggler serialises the tail) while a cheap one keeps the overhead
// of unit bookkeeping low.
type WorkUnit struct {
	Instance string `json:"instance"`
	Tier     string `json:"tier"`
	// ConfigDigest is the coordinator's runner.PlanInfo digest. The
	// worker recomputes it from the registry before executing and
	// refuses the unit on mismatch — a version-skewed worker must not
	// contribute records.
	ConfigDigest string `json:"config_digest"`
	// Unit is the unit's index in claim order (a resumed coordinator
	// numbers its fresh claims from 0 again).
	Unit int `json:"unit"`
	// JobList is the unit's strictly ascending list of job indices.
	JobList []int `json:"job_list"`
	// TotalRuns is the whole campaign's job count.
	TotalRuns int `json:"total_runs"`
	// Adaptive and CIEpsilon mirror the coordinator's resolved adaptive
	// sampling options. The worker folds them into its own
	// runner.PrepareInstance call so both sides digest the same snapshot —
	// the campaign.AdaptiveMode and stopping half-width are part of the
	// config digest exactly when they decide the job set.
	Adaptive  bool    `json:"adaptive,omitempty"`
	CIEpsilon float64 `json:"ci_epsilon,omitempty"`
	// RunBudgetSteps is the per-run watchdog budget the coordinator
	// folded into its digest; the worker must apply the same value.
	RunBudgetSteps int64 `json:"run_budget_steps,omitempty"`
	// DoneJobs lists the unit's job indices the coordinator already
	// holds (uploaded by a previous lease holder). The
	// worker neither executes nor uploads them, so a reassigned unit
	// fast-forwards.
	DoneJobs []int `json:"done_jobs,omitempty"`
	// Document carries the declarative topology source when Instance
	// is not a built-in registry entry but an API-submitted document
	// (internal/service): a worker that cannot resolve Instance locally
	// compiles and registers the document under that name before
	// executing. The config-digest check then guards the result exactly
	// as for built-ins — a worker whose compilation diverges refuses
	// the unit.
	Document string `json:"document,omitempty"`
}

// Jobs is the number of jobs the unit spans.
func (u *WorkUnit) Jobs() int { return len(u.JobList) }

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status  string    `json:"status"` // unit | wait | done
	LeaseID string    `json:"lease_id,omitempty"`
	TTLMs   int64     `json:"ttl_ms,omitempty"`
	RetryMs int64     `json:"retry_ms,omitempty"`
	Unit    *WorkUnit `json:"unit,omitempty"`
	// Campaign identifies the campaign this lease belongs to when the
	// coordinator side multiplexes several over one fleet
	// (internal/service). The worker echoes it in HeaderCampaign on
	// every unit-scoped request. Empty from a single-campaign
	// coordinator.
	Campaign string `json:"campaign,omitempty"`
}

// RecordBatch uploads completed runs to the coordinator — the bulk
// upload that precedes a unit's completion. Batches may overlap previous deliveries (worker restart, reassigned lease):
// records are content-keyed by job index, so duplicates are verified
// idempotent and conflicting content is rejected.
type RecordBatch struct {
	LeaseID string          `json:"lease_id"`
	Records []runner.Record `json:"records"`
}

// BatchResponse acknowledges a record batch.
type BatchResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	// UnitDone is true once every job of the unit is journaled (the
	// coordinator settles the unit itself — a worker dying between its
	// last upload and its complete call costs nothing).
	UnitDone bool `json:"unit_done"`
}

// HeartbeatRequest renews a lease while the worker is simulating.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	// Done reports the worker's local progress (records journaled so
	// far for this unit). Purely observational — /status, /metrics and
	// ETA estimates — since the records themselves stay on the worker
	// until the unit has finished executing.
	Done int `json:"done,omitempty"`
}

// HeartbeatResponse confirms the renewal.
type HeartbeatResponse struct {
	TTLMs int64 `json:"ttl_ms"`
}

// CompleteRequest reports a unit finished from the worker's side,
// after its records uploaded. The coordinator acknowledges it when the
// unit has settled and revokes the lease when the unit still has gaps.
type CompleteRequest struct {
	LeaseID string `json:"lease_id"`
	// Runs is how many records the worker holds locally for the unit.
	Runs int `json:"runs,omitempty"`
	// WallMs is the unit's wall-clock execution time — the
	// coordinator's cost model divides it by Runs to size future
	// units.
	WallMs int64 `json:"wall_ms,omitempty"`
}

// CompleteResponse acknowledges completion.
type CompleteResponse struct {
	// CampaignDone is true when the whole job space is journaled — the
	// worker's next lease request would answer StatusDone.
	CampaignDone bool `json:"campaign_done"`
}

// errorResponse is the JSON body of every non-2xx reply. Code, when
// present, lets clients distinguish transport damage (retryable) from
// genuine protocol errors without parsing prose.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
