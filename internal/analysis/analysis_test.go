package analysis_test

import (
	"flag"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wayfinder/internal/analysis"
	"wayfinder/internal/analysis/floateq"
	"wayfinder/internal/analysis/globalrand"
	"wayfinder/internal/analysis/maprange"
	"wayfinder/internal/analysis/walltime"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureRoot is the self-contained fixture module: its own go.mod, its
// own fake internal/rng, and one package per analyzer holding hit, miss,
// pragma-suppressed, and allowlisted cases side by side.
const fixtureRoot = "testdata/src/fixture"

// loadFixture loads every fixture package unit.
func loadFixture(t *testing.T) []*analysis.Package {
	t.Helper()
	root, err := filepath.Abs(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if loader.Module != "fixture" {
		t.Fatalf("loader.Module = %q, want fixture", loader.Module)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		units, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs
}

// fixtureAnalyzers mirrors the driver's suite with fixture-local
// configuration: fixture/allowed may read the wall clock, and the fake
// fixture/internal/rng marks sources as deterministically derived.
func fixtureAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.New([]string{"fixture/allowed"}),
		globalrand.New([]string{"internal/rng"}),
		maprange.New(),
		floateq.New(),
	}
}

// TestFixtureGolden runs the full suite over the fixture module and
// compares the rendered findings against the golden file. Regenerate
// with: go test ./internal/analysis -run Golden -update
func TestFixtureGolden(t *testing.T) {
	pkgs := loadFixture(t)
	findings := analysis.Run(pkgs, fixtureAnalyzers())
	root, err := filepath.Abs(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		f.Pos.Filename = filepath.ToSlash(rel)
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	got := b.String()
	golden := filepath.Join("testdata", "fixture.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s (re-run with -update after reviewing):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

// TestFixtureInvariants spot-checks the policy matrix directly so a
// stale golden cannot silently weaken it: allowlisted and pragma'd sites
// stay silent, per-analyzer test-file policy holds, and the sorted
// output order is stable.
func TestFixtureInvariants(t *testing.T) {
	pkgs := loadFixture(t)
	findings := analysis.Run(pkgs, fixtureAnalyzers())

	byFile := make(map[string][]analysis.Finding)
	for _, f := range findings {
		byFile[filepath.Base(f.Pos.Filename)] = append(byFile[filepath.Base(f.Pos.Filename)], f)
	}

	// Allowlisted package: silent.
	if got := byFile["allowed.go"]; len(got) != 0 {
		t.Errorf("allowlisted package produced findings: %v", got)
	}
	// walltime and floateq skip test files.
	if got := byFile["wall_test.go"]; len(got) != 0 {
		t.Errorf("walltime flagged a test file: %v", got)
	}
	if got := byFile["feq_test.go"]; len(got) != 0 {
		t.Errorf("floateq flagged a test file: %v", got)
	}
	// globalrand and maprange check test files.
	if got := byFile["grand_test.go"]; len(got) == 0 {
		t.Error("globalrand missed the global draw in grand_test.go")
	}
	if got := byFile["mrange_test.go"]; len(got) == 0 {
		t.Error("maprange missed the map-ordered t.Errorf in mrange_test.go")
	}
	// Exact per-file counts pin the hit/miss/pragma matrix: a pragma'd
	// or allowlisted site leaking, or a miss case firing, changes these.
	wantCounts := map[string]int{
		"wall.go":      3, // Bad's three reads; Pragmad/StandalonePragma/Fine silent
		"grand.go":     4, // Intn, New, nested NewSource, constructor-as-value; Derived/Pragmad silent
		"mrange.go":    3, // Emit, Send, Escape; SortedKeys/Sum/Invert/Pragmad silent
		"feq.go":       2, // Equal, Differs; NaN idiom/const fold/ZeroSentinel silent
		"badpragma.go": 3, // missing name, unknown analyzer, missing reason
		// Test files checked by globalrand/maprange (walltime and
		// floateq skip them — wall_test.go/feq_test.go asserted above).
		"grand_test.go":  1,
		"mrange_test.go": 1,
	}
	for _, file := range slices.Sorted(maps.Keys(byFile)) {
		if _, known := wantCounts[file]; !known && len(byFile[file]) > 0 {
			t.Errorf("%s: unexpected findings: %v", file, byFile[file])
		}
	}
	for _, file := range slices.Sorted(maps.Keys(wantCounts)) {
		if got, want := len(byFile[file]), wantCounts[file]; got != want {
			t.Errorf("%s: %d findings, want %d: %v", file, got, want, byFile[file])
		}
	}
	// Malformed pragmas surface under the reserved, unsuppressible
	// "pragma" analyzer name.
	for _, f := range byFile["badpragma.go"] {
		if f.Analyzer != "pragma" {
			t.Errorf("badpragma.go finding under %q, want pragma: %v", f.Analyzer, f)
		}
	}
	// Output is sorted by (file, line, col, analyzer, message).
	sorted := append([]analysis.Finding(nil), findings...)
	analysis.SortFindings(sorted)
	for i := range findings {
		if findings[i] != sorted[i] {
			t.Fatalf("Run output not in stable sorted order at index %d", i)
		}
	}
}

// TestRunDeterministic runs the suite twice over freshly-loaded packages
// and demands byte-identical rendered output — the analyzers must not
// themselves depend on map iteration order.
func TestRunDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, f := range analysis.Run(loadFixture(t), fixtureAnalyzers()) {
			b.WriteString(f.String())
			b.WriteString("\n")
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two runs diverged:\n%s\nvs:\n%s", a, b)
	}
}

// TestLoadHonorsBuildConstraints: a package whose per-platform files
// declare the same function (one by filename suffix, one by a //go:build
// line) loads and type-checks as the compiler builds it, on any platform.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":         "module demo\n",
		"p/p.go":         "package p\n\nfunc Twice() int { return 2 * f() }\n",
		"p/f_amd64.go":   "package p\n\nfunc f() int { return 1 }\n",
		"p/f_other.go":   "//go:build !amd64\n\npackage p\n\nfunc f() int { return 1 }\n",
		"p/p_test.go":    "package p\n",
		"p/_ignored.go":  "package p\n\nfunc f() int { return 1 }\n",
		"p/.hidden.go":   "package p\n\nfunc f() int { return 1 }\n",
		"p/x_windows.go": "package p\n\nfunc f() int { return 1 }\n",
	}
	for _, name := range slices.Sorted(maps.Keys(files)) {
		path, src := filepath.Join(root, name), files[name]
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(units) != 1 || len(units[0].Files) != 3 {
		t.Fatalf("loaded %d units, want 1 unit of p.go, one f file and p_test.go", len(units))
	}
}
