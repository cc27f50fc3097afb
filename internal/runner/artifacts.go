package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"propane/internal/campaign"
	"propane/internal/inject"
)

// Artifact directory layout, per campaign run:
//
//	<dir>/
//	    config.json     frozen configuration snapshot + digest
//	    journal.jsonl   per-run outcomes
//	    metrics.json    final throughput/coverage metrics
//	    failures.md     deduplicated propagation-failure catalog
//	    report.md       full analysis report

// layout resolves the artifact paths of one campaign directory.
type layout struct{ dir string }

func (l layout) configPath() string   { return filepath.Join(l.dir, "config.json") }
func (l layout) metricsPath() string  { return filepath.Join(l.dir, "metrics.json") }
func (l layout) failuresPath() string { return filepath.Join(l.dir, "failures.md") }
func (l layout) reportPath() string   { return filepath.Join(l.dir, "report.md") }

func (l layout) journalPath() string { return filepath.Join(l.dir, "journal.jsonl") }

// journalPaths globs every journal in the directory: the campaign's
// own plus any copies placed beside it, which Assemble merges by
// content.
func (l layout) journalPaths() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(l.dir, "journal*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("runner: listing journals: %w", err)
	}
	return paths, nil
}

// snapshot is the frozen, digestable form of a campaign
// configuration. It pins everything the injection plan and the run
// outcomes depend on — including per-case golden-run digests, so two
// processes disagreeing about the simulated target cannot silently
// share a journal.
type snapshot struct {
	Instance        string            `json:"instance"`
	Tier            string            `json:"tier"`
	Target          string            `json:"target"`
	Dual            bool              `json:"dual,omitempty"`
	Cases           [][2]float64      `json:"cases"` // [mass_kg, velocity_ms]
	TimesMs         []int64           `json:"times_ms"`
	Bits            []uint            `json:"bits,omitempty"`
	Models          []string          `json:"models,omitempty"`
	HorizonMs       int64             `json:"horizon_ms"`
	DirectWindowMs  int64             `json:"direct_window_ms"`
	FaultDurationMs int64             `json:"fault_duration_ms,omitempty"`
	OnlyModule      string            `json:"only_module,omitempty"`
	Tolerances      map[string]uint16 `json:"tolerances,omitempty"`
	// RunBudgetSteps pins the deterministic per-run watchdog: it
	// decides which runs are classified as hangs, so it is part of the
	// digest. The wall-clock backstop is deliberately excluded — it is
	// non-deterministic and must never change a journaled outcome on a
	// healthy run. omitempty keeps pre-supervision digests valid.
	RunBudgetSteps int64 `json:"run_budget_steps,omitempty"`
	// Adaptive and CIEpsilon pin adaptive sequential sampling
	// (campaign.AdaptiveMode): they decide which jobs execute at all,
	// so two processes must agree on them to share a journal. Both are
	// omitted for full-matrix campaigns, keeping pre-adaptive digests
	// valid, and record the RESOLVED state — an AdaptiveAuto config
	// that declines digests identically to AdaptiveOff.
	Adaptive      bool     `json:"adaptive,omitempty"`
	CIEpsilon     float64  `json:"ci_epsilon,omitempty"`
	PlanSize      int      `json:"plan_size"`
	TotalRuns     int      `json:"total_runs"`
	GoldenDigests []string `json:"golden_digests"`
	Digest        string   `json:"digest,omitempty"`
}

// newSnapshot freezes a campaign configuration together with its
// golden-run trace digests (campaign.Golden.Digests).
func newSnapshot(name string, tier Tier, cfg campaign.Config, planSize int, digests []string) (snapshot, error) {
	s := snapshot{
		Instance:        name,
		Tier:            string(tier),
		Target:          "arrestor",
		Dual:            cfg.Dual,
		TimesMs:         make([]int64, 0, len(cfg.Times)),
		Bits:            cfg.Bits,
		HorizonMs:       int64(cfg.HorizonMs),
		DirectWindowMs:  int64(cfg.DirectWindowMs),
		FaultDurationMs: int64(cfg.FaultDurationMs),
		OnlyModule:      cfg.OnlyModule,
		RunBudgetSteps:  cfg.Budget.Steps,
		PlanSize:        planSize,
		TotalRuns:       planSize * len(cfg.TestCases),
		GoldenDigests:   digests,
	}
	if cfg.AdaptiveEnabled() {
		s.Adaptive = true
		s.CIEpsilon = cfg.ResolvedCIEpsilon()
	}
	switch {
	case cfg.Custom != nil:
		s.Target = cfg.Custom.Name
	case cfg.Dual:
		s.Target = "arrestor-dual"
	}
	for _, tc := range cfg.TestCases {
		s.Cases = append(s.Cases, [2]float64{tc.MassKg, tc.VelocityMS})
	}
	for _, at := range cfg.Times {
		s.TimesMs = append(s.TimesMs, int64(at))
	}
	for _, m := range cfg.Models {
		spec, err := inject.Spec(m)
		if err != nil {
			return snapshot{}, err
		}
		s.Models = append(s.Models, spec)
	}
	if len(cfg.Tolerances) > 0 {
		s.Tolerances = map[string]uint16(cfg.Tolerances)
	}
	d, err := s.digest()
	if err != nil {
		return snapshot{}, err
	}
	s.Digest = d
	return s, nil
}

// digest hashes the snapshot's canonical JSON form (Digest itself
// excluded). encoding/json renders map keys sorted, so the rendering
// is deterministic.
func (s snapshot) digest() (string, error) {
	s.Digest = ""
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("runner: hashing config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// writeSnapshot persists the config snapshot, or — when one already
// exists — verifies it matches, so an artifact directory can never
// mix campaigns.
func writeSnapshot(path string, s snapshot) error {
	if data, err := os.ReadFile(path); err == nil {
		var existing snapshot
		if err := json.Unmarshal(data, &existing); err != nil {
			return fmt.Errorf("runner: %s is corrupt: %w", path, err)
		}
		if existing.Digest != s.Digest {
			return fmt.Errorf("runner: %s was recorded for config %s, current config is %s — use a fresh artifact directory: %w",
				path, existing.Digest, s.Digest, ErrDigestMismatch)
		}
		return nil
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("runner: reading %s: %w", path, err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding config snapshot: %w", err)
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes via a temp file + rename so a kill cannot
// leave a half-written artifact behind.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("runner: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("runner: installing %s: %w", path, err)
	}
	return nil
}
