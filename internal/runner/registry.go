package runner

import (
	"fmt"
	"sort"
	"sync"

	"propane/internal/arrestor"
	"propane/internal/autobrake"
	"propane/internal/campaign"
	"propane/internal/hostile"
	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/trace"
)

// Tier selects the campaign intensity of a named instance.
type Tier string

const (
	// TierQuick is a scaled-down matrix that finishes in seconds —
	// for smoke tests, CI and orchestration development.
	TierQuick Tier = "quick"
	// TierFull is the production-scale matrix (the paper's grid where
	// the instance reproduces the paper).
	TierFull Tier = "full"
)

// Tiers lists the supported tiers.
func Tiers() []Tier { return []Tier{TierQuick, TierFull} }

// Definition is one named campaign instance: a stable configuration
// selectable by name and tier, replacing ad-hoc "run01" loops with a
// fixed, resumable experiment matrix.
type Definition struct {
	// Name selects the instance (e.g. "paper", "autobrake").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Config builds the campaign configuration for a tier.
	Config func(tier Tier) (campaign.Config, error)
}

// quickGrid is the reduced workload grid shared by the quick tiers.
func quickGrid() ([]physics.TestCase, error) {
	return physics.Grid(2, 2, 8000, 20000, 40, 80)
}

// scaled assembles an arrestor campaign for a tier: the quick tier
// trims the grid, instants and bit positions; the full tier is the
// paper's 4000-injections-per-signal matrix.
func scaled(tier Tier, mutate func(*campaign.Config) error) (campaign.Config, error) {
	var cfg campaign.Config
	switch tier {
	case TierQuick:
		cases, err := quickGrid()
		if err != nil {
			return campaign.Config{}, err
		}
		cfg = campaign.Config{
			Arrestor:       arrestor.DefaultConfig(),
			TestCases:      cases,
			Times:          []sim.Millis{1000, 2500, 4000},
			Bits:           []uint{0, 5, 10, 15},
			HorizonMs:      6000,
			DirectWindowMs: 500,
		}
	case TierFull:
		cfg = campaign.PaperConfig()
	default:
		return campaign.Config{}, fmt.Errorf("runner: unknown tier %q (want %s or %s)", tier, TierQuick, TierFull)
	}
	if mutate != nil {
		if err := mutate(&cfg); err != nil {
			return campaign.Config{}, err
		}
	}
	return cfg, nil
}

// ablationModels is the error-model ablation list: the paper's
// bit-flips plus stuck-ats, a gross replacement and an arithmetic
// offset (Section 6 argues relative orderings should survive the
// model choice; this instance measures whether they do).
func ablationModels() []inject.ErrorModel {
	return []inject.ErrorModel{
		inject.BitFlip{Bit: 3},
		inject.BitFlip{Bit: 12},
		inject.StuckAt{Bit: 3},
		inject.StuckAt{Bit: 3, One: true},
		inject.Replace{Value: 0x5555},
		inject.Offset{Delta: 129},
	}
}

// registry holds the named instances. Keep definitions deterministic:
// the config a (name, tier) pair produces must be stable across
// processes, because journals and work units key on its digest. regMu
// guards it because Register can add DSL-compiled instances at
// runtime while workers call Lookup.
var regMu sync.RWMutex

var registry = map[string]Definition{
	"paper": {
		Name:        "paper",
		Description: "the paper's Section 7 campaign on the single-node arrestment system",
		Config: func(tier Tier) (campaign.Config, error) {
			return scaled(tier, nil)
		},
	},
	"reduced": {
		Name:        "reduced",
		Description: "scaled-down campaign preserving the qualitative structure of the results",
		Config: func(tier Tier) (campaign.Config, error) {
			switch tier {
			case TierQuick:
				cases, err := physics.Grid(1, 2, 11000, 11000, 50, 70)
				if err != nil {
					return campaign.Config{}, err
				}
				return campaign.Config{
					Arrestor:       arrestor.DefaultConfig(),
					TestCases:      cases,
					Times:          []sim.Millis{1500, 3500},
					Bits:           []uint{2, 14},
					HorizonMs:      6000,
					DirectWindowMs: 500,
				}, nil
			case TierFull:
				return campaign.ReducedConfig(), nil
			default:
				return campaign.Config{}, fmt.Errorf("runner: unknown tier %q", tier)
			}
		},
	},
	"dual": {
		Name:        "dual",
		Description: "master/slave two-node deployment (Section 7.1): 11 modules, 31 pairs",
		Config: func(tier Tier) (campaign.Config, error) {
			return scaled(tier, func(c *campaign.Config) error {
				c.Dual = true
				return nil
			})
		},
	},
	"autobrake": {
		Name:        "autobrake",
		Description: "wheel-slip brake controller target (panic-stop scenarios)",
		Config: func(tier Tier) (campaign.Config, error) {
			cfg := campaign.Config{
				Custom:         autobrake.Target(autobrake.DefaultConfig()),
				HorizonMs:      6000,
				DirectWindowMs: 500,
			}
			switch tier {
			case TierQuick:
				cases, err := physics.Grid(2, 2, 900, 2100, 18, 38)
				if err != nil {
					return campaign.Config{}, err
				}
				cfg.TestCases = cases
				cfg.Times = []sim.Millis{1000, 2500, 4000}
				cfg.Bits = []uint{0, 5, 10, 15}
			case TierFull:
				cases, err := physics.Grid(5, 5, 900, 2100, 18, 38)
				if err != nil {
					return campaign.Config{}, err
				}
				cfg.TestCases = cases
				cfg.Times = inject.PaperTimes()
				cfg.Bits = inject.AllBits()
			default:
				return campaign.Config{}, fmt.Errorf("runner: unknown tier %q", tier)
			}
			return cfg, nil
		},
	},
	"hostile": {
		Name:        "hostile",
		Description: "adversarial crash/hang target exercising the supervised execution layer",
		Config: func(tier Tier) (campaign.Config, error) {
			cfg := campaign.Config{
				Custom: hostile.Target(),
			}
			switch tier {
			case TierQuick:
				cases, err := physics.Grid(1, 2, 12000, 12000, 50, 70)
				if err != nil {
					return campaign.Config{}, err
				}
				cfg.TestCases = cases
				cfg.Times = []sim.Millis{50, 150}
				cfg.Bits = []uint{3, 15}
				cfg.HorizonMs = 300
			case TierFull:
				cases, err := physics.Grid(2, 2, 8000, 20000, 40, 80)
				if err != nil {
					return campaign.Config{}, err
				}
				cfg.TestCases = cases
				cfg.Times = []sim.Millis{50, 250, 450}
				cfg.Bits = []uint{0, 3, 7, 11, 15}
				cfg.HorizonMs = 600
			default:
				return campaign.Config{}, fmt.Errorf("runner: unknown tier %q", tier)
			}
			cfg.Budget = hostile.RunBudget(cfg.HorizonMs)
			return cfg, nil
		},
	},
	"error-models": {
		Name:        "error-models",
		Description: "error-model ablation: stuck-ats, replacements and offsets besides bit-flips",
		Config: func(tier Tier) (campaign.Config, error) {
			return scaled(tier, func(c *campaign.Config) error {
				c.Bits = nil
				c.Models = ablationModels()
				return nil
			})
		},
	},
	"tolerance": {
		Name:        "tolerance",
		Description: "tolerance ablation: Golden Run Comparison with per-signal bands (Section 7.3)",
		Config: func(tier Tier) (campaign.Config, error) {
			return scaled(tier, func(c *campaign.Config) error {
				tol := make(trace.Tolerances)
				for _, sig := range c.System().Signals() {
					tol[sig] = 2
				}
				c.Tolerances = tol
				return nil
			})
		},
	},
}

// Instances lists the registered instance definitions, sorted by
// name.
func Instances() []Definition {
	regMu.RLock()
	defer regMu.RUnlock()
	defs := make([]Definition, 0, len(registry))
	for _, d := range registry {
		defs = append(defs, d)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}

// Lookup resolves an instance by name.
func Lookup(name string) (Definition, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return Definition{}, fmt.Errorf("runner: unknown instance %q (have %v)", name, names)
	}
	return d, nil
}
