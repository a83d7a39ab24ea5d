package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestMissingExp(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -exp accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope", "-runs", "1"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunCheapArtifactWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	// table2 is SAMC+MST only: cheap enough for a unit test at 1 run.
	if err := run([]string{"-exp", "table2", "-runs", "1", "-quiet", "-csv", dir, "-chart"}); err != nil {
		t.Fatalf("table2: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV written")
	}
}

func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	// fig4d is SAMC+UCPO only: the cheapest artifact.
	if err := run([]string{"-exp", "fig4d", "-runs", "1", "-quiet", "-cpuprofile", path}); err != nil {
		t.Fatalf("fig4d -cpuprofile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A pprof profile is a gzip-compressed protobuf.
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("-cpuprofile wrote %d bytes that are not a gzip stream", len(data))
	}
	if err := run([]string{"-list", "-cpuprofile", filepath.Join(t.TempDir(), "absent", "cpu.prof")}); err == nil {
		t.Error("-cpuprofile into a missing directory accepted")
	}
}
