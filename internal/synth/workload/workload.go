// Package workload provides parameterized workload generation for
// campaign targets: deterministic, seeded distributions over the
// physical profile parameters (mass, velocity) that drive a target's
// environment. The paper's Section 6 makes permeability estimates
// explicitly workload-driven — "the profile of the usage of the
// system" selects which propagation paths are exercised — so workload
// generation *is* scenario generation: one declarative target plus a
// family of workload specs yields a family of campaigns.
//
// Every generator is deterministic: the same Spec always produces the
// same test-case list, byte for byte, so journals and
// distributed workers agree on the campaign enumeration (the same
// property the hand-written physics.Grid workloads have).
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"propane/internal/physics"
)

// ErrInvalidSpec is wrapped by every validation error of this package,
// so callers can distinguish a malformed workload description from an
// execution failure with errors.Is.
var ErrInvalidSpec = errors.New("workload: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalidSpec)...)
}

// Spec describes one workload generator. Kind selects the generator;
// the other fields parameterise it (unused fields are ignored by
// kinds that do not read them, but Validate rejects obviously
// inconsistent combinations).
type Spec struct {
	// Kind selects the generator: "grid", "uniform", "normal",
	// "phases" or "trace".
	Kind string `json:"kind"`
	// Seed drives the pseudo-random kinds (uniform, normal). The same
	// seed always yields the same cases.
	Seed int64 `json:"seed,omitempty"`
	// N is the number of cases drawn by the random kinds.
	N int `json:"n,omitempty"`
	// NMass and NVel are the grid dimensions of kind "grid".
	NMass int `json:"n_mass,omitempty"`
	NVel  int `json:"n_vel,omitempty"`
	// MassLo/MassHi and VelLo/VelHi bound the mass (kg) and velocity
	// (m/s) ranges for "grid" and "uniform", and clamp "normal".
	MassLo float64 `json:"mass_lo,omitempty"`
	MassHi float64 `json:"mass_hi,omitempty"`
	VelLo  float64 `json:"vel_lo,omitempty"`
	VelHi  float64 `json:"vel_hi,omitempty"`
	// MassMean/MassStd and VelMean/VelStd parameterise kind "normal".
	MassMean float64 `json:"mass_mean,omitempty"`
	MassStd  float64 `json:"mass_std,omitempty"`
	VelMean  float64 `json:"vel_mean,omitempty"`
	VelStd   float64 `json:"vel_std,omitempty"`
	// Phases concatenates sub-workloads for kind "phases" (multi-phase
	// profiles: e.g. a block of light/fast engagements followed by a
	// block of heavy/slow ones).
	Phases []Spec `json:"phases,omitempty"`
	// Path names the recorded-trace file for kind "trace": one case
	// per line, "massKg,velocityMS" (CSV, '#' comments allowed) or a
	// JSON array of {"mass_kg":..,"velocity_ms":..} objects.
	Path string `json:"path,omitempty"`
}

// Validate reports spec errors; every returned error wraps
// ErrInvalidSpec.
func (s Spec) Validate() error {
	switch s.Kind {
	case "grid":
		if s.NMass < 1 || s.NVel < 1 {
			return invalidf("workload: grid needs n_mass and n_vel >= 1 (got %d×%d)", s.NMass, s.NVel)
		}
		if s.MassLo > s.MassHi || s.VelLo > s.VelHi {
			return invalidf("workload: grid bounds out of order")
		}
	case "uniform":
		if s.N < 1 {
			return invalidf("workload: uniform needs n >= 1")
		}
		if s.MassLo <= 0 || s.MassHi < s.MassLo || s.VelLo <= 0 || s.VelHi < s.VelLo {
			return invalidf("workload: uniform needs 0 < mass_lo <= mass_hi and 0 < vel_lo <= vel_hi")
		}
	case "normal":
		if s.N < 1 {
			return invalidf("workload: normal needs n >= 1")
		}
		if s.MassMean <= 0 || s.VelMean <= 0 {
			return invalidf("workload: normal needs positive mass_mean and vel_mean")
		}
		if s.MassStd < 0 || s.VelStd < 0 {
			return invalidf("workload: normal needs non-negative deviations")
		}
	case "phases":
		if len(s.Phases) == 0 {
			return invalidf("workload: phases needs at least one sub-workload")
		}
		for i, p := range s.Phases {
			if p.Kind == "phases" {
				return invalidf("workload: phase %d nests another phases spec", i)
			}
			if err := p.Validate(); err != nil {
				return fmt.Errorf("workload: phase %d: %w", i, err)
			}
		}
	case "trace":
		if s.Path == "" {
			return invalidf("workload: trace needs a path")
		}
	case "":
		return invalidf("workload: no kind given")
	default:
		return invalidf("workload: unknown kind %q (want grid, uniform, normal, phases or trace)", s.Kind)
	}
	return nil
}

// Generate produces the test-case list. The result is deterministic:
// equal specs always generate equal lists.
func Generate(s Spec) ([]physics.TestCase, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "grid":
		return physics.Grid(s.NMass, s.NVel, s.MassLo, s.MassHi, s.VelLo, s.VelHi)
	case "uniform":
		return uniform(s), nil
	case "normal":
		return normal(s), nil
	case "phases":
		var cases []physics.TestCase
		for i, p := range s.Phases {
			sub, err := Generate(p)
			if err != nil {
				return nil, fmt.Errorf("workload: phase %d: %w", i, err)
			}
			cases = append(cases, sub...)
		}
		return cases, nil
	case "trace":
		return readTrace(s.Path)
	}
	return nil, invalidf("workload: unknown kind %q", s.Kind)
}

// round1 quantises to 0.1 so generated cases serialise compactly and
// digest identically across float formatting choices.
func round1(v float64) float64 { return math.Round(v*10) / 10 }

// uniform draws N cases uniformly from the mass/velocity box using
// the seeded generator (math/rand's Go-1-stable source, so the draw
// sequence never changes under toolchain upgrades).
func uniform(s Spec) []physics.TestCase {
	rng := rand.New(rand.NewSource(s.Seed))
	cases := make([]physics.TestCase, s.N)
	for i := range cases {
		cases[i] = physics.TestCase{
			MassKg:     round1(s.MassLo + (s.MassHi-s.MassLo)*rng.Float64()),
			VelocityMS: round1(s.VelLo + (s.VelHi-s.VelLo)*rng.Float64()),
		}
	}
	return cases
}

// normal draws N cases from independent normal distributions over
// mass and velocity, clamped to the [lo, hi] box when bounds are
// given (a zero bound leaves that side open, except that results are
// always kept strictly positive so physics.NewWorld accepts them).
func normal(s Spec) []physics.TestCase {
	rng := rand.New(rand.NewSource(s.Seed))
	clamp := func(v, lo, hi, fallback float64) float64 {
		if lo > 0 && v < lo {
			v = lo
		}
		if hi > 0 && v > hi {
			v = hi
		}
		if v <= 0 {
			v = fallback
		}
		return round1(v)
	}
	cases := make([]physics.TestCase, s.N)
	for i := range cases {
		m := s.MassMean + s.MassStd*rng.NormFloat64()
		v := s.VelMean + s.VelStd*rng.NormFloat64()
		cases[i] = physics.TestCase{
			MassKg:     clamp(m, s.MassLo, s.MassHi, s.MassMean),
			VelocityMS: clamp(v, s.VelLo, s.VelHi, s.VelMean),
		}
	}
	return cases
}

// readTrace replays a recorded workload trace: CSV lines
// "massKg,velocityMS" (blank lines and '#' comments skipped) or a
// JSON array of {"mass_kg":..,"velocity_ms":..} objects.
func readTrace(path string) ([]physics.TestCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var rows []struct {
			MassKg     float64 `json:"mass_kg"`
			VelocityMS float64 `json:"velocity_ms"`
		}
		if err := json.Unmarshal([]byte(trimmed), &rows); err != nil {
			return nil, invalidf("workload: trace %s: %v", path, err)
		}
		cases := make([]physics.TestCase, 0, len(rows))
		for i, r := range rows {
			if r.MassKg <= 0 || r.VelocityMS <= 0 {
				return nil, invalidf("workload: trace %s row %d: non-positive mass or velocity", path, i)
			}
			cases = append(cases, physics.TestCase{MassKg: r.MassKg, VelocityMS: r.VelocityMS})
		}
		if len(cases) == 0 {
			return nil, invalidf("workload: trace %s holds no cases", path)
		}
		return cases, nil
	}
	var cases []physics.TestCase
	for ln, line := range strings.Split(trimmed, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, invalidf("workload: trace %s line %d: want massKg,velocityMS", path, ln+1)
		}
		m, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		v, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil || m <= 0 || v <= 0 {
			return nil, invalidf("workload: trace %s line %d: bad case %q", path, ln+1, line)
		}
		cases = append(cases, physics.TestCase{MassKg: m, VelocityMS: v})
	}
	if len(cases) == 0 {
		return nil, invalidf("workload: trace %s holds no cases", path)
	}
	return cases, nil
}
