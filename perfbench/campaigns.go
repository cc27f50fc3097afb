package main

import (
	"os"

	"propane/internal/campaign"
	"propane/internal/runner"
	"propane/internal/service"
)

// paperRequest is the full-tier paper campaign behind matrix (fixed
// matrix) and fleet (adaptive at ε=fleetEpsilon).
func paperRequest(adaptive bool) service.SubmitRequest {
	req := service.SubmitRequest{Instance: "paper", Tier: string(runner.TierFull)}
	if adaptive {
		req.Adaptive = "force"
		req.CIEpsilon = fleetEpsilon
	}
	return req
}

// load resolves a submission's registry instance or topology document
// to its campaign name and configuration.
func load(req service.SubmitRequest) (string, campaign.Config, error) {
	var def runner.Definition
	var err error
	name := req.Instance
	if req.Document != "" {
		name = "synth-doc-" + sha12([]byte(req.Document))
		def, err = runner.LoadSynthBytes([]byte(req.Document), name)
	} else {
		def, err = runner.Lookup(name)
	}
	if err != nil {
		return "", campaign.Config{}, err
	}
	cfg, err := def.Config(runner.Tier(req.Tier))
	return name, cfg, err
}

// singleNode runs a submission's campaign through runner.Run on one
// node at Workers=2 — the reference the output checks compare with —
// and reads back its journal. report also renders report.md.
func singleNode(req service.SubmitRequest, dir string, report bool) (*runner.RunResult, journalInfo, error) {
	name, cfg, err := load(req)
	if err != nil {
		return nil, journalInfo{}, err
	}
	opts := runner.Options{Name: name, Tier: runner.Tier(req.Tier), Dir: dir, Workers: 2, SkipReport: !report}
	if req.Adaptive == "force" {
		opts.Adaptive = campaign.AdaptiveForce
		opts.CIEpsilon = req.CIEpsilon
	}
	rr, err := runner.Run(cfg, opts)
	if err != nil {
		return nil, journalInfo{}, err
	}
	ji, err := readJournal(dir)
	return rr, ji, err
}

// journalInfo summarises one campaign's record journal: the canonical
// record-set digest the output checks compare, and the journal's size.
type journalInfo struct {
	digest  string
	records int
	bytes   int64
	rounds  int // highest adaptive round a record carries
}

// readJournal loads the unsharded journal a campaign leaves in dir.
func readJournal(dir string) (journalInfo, error) {
	path := runner.ShardJournalPath(dir, 0, 1)
	_, recs, err := runner.ReadJournal(path)
	if err != nil {
		return journalInfo{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return journalInfo{}, err
	}
	ji := journalInfo{digest: runner.RecordSetDigest(recs), records: len(recs), bytes: st.Size()}
	for _, r := range recs {
		if r.Round > ji.rounds {
			ji.rounds = r.Round
		}
	}
	return ji, nil
}

// tally sums the campaign- and runner-layer counts over the campaigns
// of one traced execution.
type tally struct {
	settled, executed, converged, unfired, noop, memo, store int
	scheduled, population, rounds                            int
	journalRecords                                           int
	journalBytes                                             int64
	prefixS, tailS                                           []float64
}

func (t *tally) addResult(res *campaign.Result) {
	p := res.Pruning
	t.settled += res.Runs
	t.executed += p.Executed
	t.converged += p.Converged
	t.unfired += p.Unfired
	t.noop += p.NoOp
	t.memo += p.Memoized
	t.store += p.Store
	if a := res.Adaptive; a != nil {
		t.scheduled += a.Scheduled
		t.population += a.Population
	}
}

func (t *tally) addJournal(ji journalInfo) {
	t.journalRecords += ji.records
	t.journalBytes += ji.bytes
	t.rounds += ji.rounds
}

func (t *tally) into(m map[string]metric) {
	m["campaign.prefix_s"] = metric{median(t.prefixS), "s"}
	m["campaign.runs_settled"] = metric{float64(t.settled), "count"}
	m["campaign.runs_executed"] = metric{float64(t.executed), "count"}
	if t.settled > 0 {
		m["campaign.executed_frac"] = metric{float64(t.executed) / float64(t.settled), "ratio"}
	}
	m["campaign.runs_converged"] = metric{float64(t.converged), "count"}
	m["campaign.runs_unfired"] = metric{float64(t.unfired), "count"}
	m["campaign.runs_noop"] = metric{float64(t.noop), "count"}
	m["campaign.runs_memo"] = metric{float64(t.memo), "count"}
	m["campaign.runs_store"] = metric{float64(t.store), "count"}
	m["campaign.adaptive_scheduled"] = metric{float64(t.scheduled), "count"}
	m["campaign.adaptive_population"] = metric{float64(t.population), "count"}
	m["campaign.adaptive_rounds"] = metric{float64(t.rounds), "count"}
	m["runner.journal_records"] = metric{float64(t.journalRecords), "count"}
	m["runner.journal_bytes"] = metric{float64(t.journalBytes), "bytes"}
	m["runner.tail_s"] = metric{median(t.tailS), "s"}
}
