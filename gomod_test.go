package avgloc_test

import (
	"os"
	"strings"
	"testing"
)

// TestBenchModuleGoVersion: bench/go.mod requires this module through a
// replace directive, so its `go` line must be at least this module's. A
// newer root line makes every go command in bench/ — and so the benchmark
// (bash bench/run.sh) — fail with "go: updates to go.mod needed".
func TestBenchModuleGoVersion(t *testing.T) {
	root := goLine(t, "go.mod")
	bench := goLine(t, "bench/go.mod")
	if versionLess(bench, root) {
		t.Fatalf("go.mod says go %s but bench/go.mod says go %s: the bench module would fail "+
			"with \"go: updates to go.mod needed\"; raise bench/go.mod's go line with it", root, bench)
	}
}

// goLine returns the version on the `go` directive of a go.mod file.
func goLine(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "go" {
			return f[1]
		}
	}
	t.Fatalf("%s has no go line", path)
	return ""
}

// versionLess compares dotted Go versions numerically ("1.22" < "1.22.1" <
// "1.23"); a pre-release suffix such as "rc1" is ignored.
func versionLess(a, b string) bool {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	for i := 0; i < len(as) || i < len(bs); i++ {
		x, y := versionPart(as, i), versionPart(bs, i)
		if x != y {
			return x < y
		}
	}
	return false
}

// versionPart returns the leading number of parts[i], or 0 past the end.
func versionPart(parts []string, i int) int {
	n := 0
	if i < len(parts) {
		for _, r := range parts[i] {
			if r < '0' || r > '9' {
				break
			}
			n = n*10 + int(r-'0')
		}
	}
	return n
}
