package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTrace replays the pinned shards=1 failover scenario and
// compares the sha256 of its Chrome trace against goldens/ftsim-trace.sha256:
// any change to the recorded or replayed execution of the global-mutex
// engine shows up as a different hash.
func TestGoldenTrace(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "goldens", "ftsim-trace.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	if len(want) == 0 {
		t.Fatal("goldens/ftsim-trace.sha256 is empty")
	}
	trace := filepath.Join(t.TempDir(), "golden-check.json")
	o, err := parseFlags([]string{"-size", "8388608", "-fail", "2s", "-shards", "1", "-trace", trace})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want[0] {
		t.Errorf("trace sha256 = %s, golden %s: the shards=1 execution changed", got, want[0])
	}
}
