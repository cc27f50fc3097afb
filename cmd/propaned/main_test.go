package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoopbackCampaign drives the full distributed path through the
// CLI: coordinator plus two in-process workers over real HTTP, then
// assembly into the standard artifact set.
func TestLoopbackCampaign(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-instance", "reduced", "-dir", dir, "-units", "4", "-loopback", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	for _, name := range []string{"config.json", "journal.bin", "metrics.json", "failures.md", "report.md", "assignments.bin"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "campaign reduced/quick assembled") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

func TestNoInstance(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("propaned ran without -instance")
	}
}
