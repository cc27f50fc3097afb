package report

import (
	"strings"
	"testing"

	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/physics"
	"propane/internal/sim"
)

func TestAdaptiveSectionEmptyForFixedMatrix(t *testing.T) {
	if s := AdaptiveSection(campaignResult(t)); s != "" {
		t.Errorf("fixed-matrix campaign renders an adaptive section:\n%s", s)
	}
}

// TestMarkdownAdaptive runs a small adaptive campaign end to end and
// checks the report documents the sampler's spending.
func TestMarkdownAdaptive(t *testing.T) {
	cases, err := physics.Grid(1, 1, 11000, 11000, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(campaign.Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{2000},
		Bits:           []uint{3, 12},
		HorizonMs:      6000,
		DirectWindowMs: 500,
		Adaptive:       campaign.AdaptiveForce,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive campaign carries no AdaptiveStats")
	}
	if s := AdaptiveSection(res); !strings.Contains(s, "Sequential sampling") {
		t.Errorf("AdaptiveSection = %q, want the sampler summary", s)
	}
	md, err := Markdown(res, MarkdownOptions{})
	if err != nil {
		t.Fatalf("Markdown: %v", err)
	}
	if !strings.Contains(md, "### Adaptive sampling") {
		t.Error("adaptive markdown report missing \"### Adaptive sampling\"")
	}
}
