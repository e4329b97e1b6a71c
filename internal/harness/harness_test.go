package harness_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"avgloc/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// tablesGolden holds one "<id> <sha256 of the rendered table>" line per
// experiment at Quick scale, seed 42.
var tablesGolden = filepath.Join("testdata", "tables.golden")

func readTableHashes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tablesGolden, line)
		}
		want[id] = sum
	}
	return want
}

// TestAllExperimentsQuick runs every experiment at Quick scale, checks
// basic table well-formedness, and pins every table's bytes: the sha256 of
// its rendering at seed 42 must match testdata/tables.golden, so any
// change to a reported number fails here with the experiment's name. The
// qualitative shape assertions live in the focused tests below and in the
// per-package tests.
func TestAllExperimentsQuick(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readTableHashes(t)
	}
	var mu sync.Mutex
	got := map[string]string{}
	if *update {
		t.Cleanup(func() {
			var b strings.Builder
			for _, e := range harness.All() {
				fmt.Fprintf(&b, "%s %s\n", e.ID, got[e.ID])
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tablesGolden, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, e := range harness.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := e.Run(harness.Options{Scale: harness.Quick, Seed: 42})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			sum := sha256.Sum256([]byte(tab.String()))
			h := hex.EncodeToString(sum[:])
			if *update {
				mu.Lock()
				got[e.ID] = h
				mu.Unlock()
			} else if h != want[e.ID] {
				t.Errorf("%s: table sha256 %s, golden %s (rerun with -update if the change is intended):\n%s",
					e.ID, h, want[e.ID], tab)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Columns) {
					t.Fatalf("%s: row width %d != %d columns", e.ID, len(r), len(tab.Columns))
				}
			}
			if !strings.Contains(tab.String(), e.ID) {
				t.Fatalf("%s: rendering lacks id", e.ID)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := harness.Run("E99", harness.Options{Scale: harness.Quick, Seed: 1}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestTablesIdenticalAcrossParallelism asserts the determinism contract of
// the harness: tables are bit-identical whatever the worker budget.
func TestTablesIdenticalAcrossParallelism(t *testing.T) {
	for _, id := range []string{"E1", "E10"} {
		seq, err := harness.Run(id, harness.Options{Scale: harness.Quick, Seed: 42, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := harness.Run(id, harness.Options{Scale: harness.Quick, Seed: 42, Parallelism: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq.String() != par.String() {
			t.Fatalf("%s: tables differ across parallelism:\n--- sequential\n%s\n--- parallel\n%s", id, seq, par)
		}
	}
}

func cell(t *testing.T, tab *harness.Table, row int, col string) float64 {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			v, err := strconv.ParseFloat(tab.Rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell %q: %v", tab.Rows[row][i], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}

func TestE1Shape(t *testing.T) {
	tab, err := harness.Run("E1", harness.Options{Scale: harness.Quick, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2 vs Theorem 16: in every row, the ruling-set node average
	// stays below the MIS node averages... at the very least below Luby's
	// on the largest degree, and bounded by a small constant.
	for r := range tab.Rows {
		rs := cell(t, tab, r, "rs22 nodeAvg")
		if rs > 15 {
			t.Fatalf("row %d: rs22 node average %v too large for O(1)", r, rs)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := harness.Run("E10", harness.Options{Scale: harness.Quick, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	detSmall, detBig := cell(t, tab, 0, "det nodeAvg"), cell(t, tab, last, "det nodeAvg")
	lubySmall, lubyBig := cell(t, tab, 0, "luby nodeAvg"), cell(t, tab, last, "luby nodeAvg")
	// Deterministic node average grows (log* n with our palette constants)
	// while Luby's stays within a constant band.
	if detBig <= detSmall {
		t.Fatalf("deterministic node average should grow: %v -> %v", detSmall, detBig)
	}
	if lubyBig > 3*lubySmall+3 {
		t.Fatalf("Luby node average should stay O(1): %v -> %v", lubySmall, lubyBig)
	}
}

func TestE12ChainHolds(t *testing.T) {
	tab, err := harness.Run("E12", harness.Options{Scale: harness.Quick, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "chain holds: true") {
			found = true
		}
	}
	if !found {
		t.Fatalf("measure chain violated: %v", tab.Notes)
	}
}
