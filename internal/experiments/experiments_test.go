package experiments

import (
	"strconv"
	"strings"
	"testing"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// quick returns a fast configuration for tests.
func quick() Config { return Quick() }

// entries looks up the named catalog benchmarks, in the given order.
func entries(t *testing.T, names ...string) []catalog.Entry {
	t.Helper()
	out := make([]catalog.Entry, len(names))
	for i, n := range names {
		e, err := catalog.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e
	}
	return out
}

// measureNamed builds the Dataset of the named catalog benchmarks, one row
// each, in the given order.
func measureNamed(t *testing.T, cfg Config, names ...string) *Dataset {
	t.Helper()
	ds, err := cfg.measure(entries(t, names...))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// rowNames returns the benchmark column of a rendered table's data rows
// (every benchmark's display name is two fields, "name (lang)").
func rowNames(tb *metrics.Table) []string {
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:] {
		f := strings.Fields(line)
		names = append(names, f[0]+" "+f[1])
	}
	return names
}

// cellValue parses a rendered numeric cell.
func cellValue(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "+"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// numRows counts a rendered table's data rows: the lines below its title,
// header and rule (every experiment table has a title).
func numRows(tb *metrics.Table) int {
	return strings.Count(tb.Render(), "\n") - 3
}

func TestModesFor(t *testing.T) {
	py, _ := catalog.Lookup("get-time (p)")
	nd, _ := catalog.Lookup("get-time (n)")
	cFn, _ := catalog.Lookup("bicg (c)")
	has := func(ms []isolation.Mode, m isolation.Mode) bool {
		for _, x := range ms {
			if x == m {
				return true
			}
		}
		return false
	}
	if !has(ModesFor(py), isolation.ModeFork) || !has(ModesFor(py), isolation.ModeFaasm) {
		t.Fatal("python should support fork and faasm")
	}
	if has(ModesFor(nd), isolation.ModeFork) || has(ModesFor(nd), isolation.ModeFaasm) {
		t.Fatal("node supports neither fork nor faasm")
	}
	if !has(ModesFor(cFn), isolation.ModeFork) {
		t.Fatal("C should support fork")
	}
}

func TestRunFullAndDerivedTables(t *testing.T) {
	ds := measureNamed(t, quick(), "chaos (p)", "logging (p)", "pyaes (p)")
	if len(ds.Rows) != 3 {
		t.Fatalf("rows = %d", len(ds.Rows))
	}
	for _, row := range ds.Rows {
		base := row.Cell(isolation.ModeBase)
		gh := row.Cell(isolation.ModeGH)
		if base == nil || gh == nil {
			t.Fatalf("%s: missing mandatory cells", row.Entry.Prof.DisplayName())
		}
		if base.Throughput <= 0 || gh.Throughput <= 0 {
			t.Fatalf("%s: zero throughput", row.Entry.Prof.DisplayName())
		}
		if gh.RestoreMeanMS <= 0 {
			t.Fatalf("%s: GH did not restore", row.Entry.Prof.DisplayName())
		}
		// For leaky functions (logging(p)) GH is legitimately FASTER than
		// BASE — the paper's blue cell; skip the direction check there.
		if row.Entry.Prof.LeakSlowdown == 0 && gh.InvMeanMS < base.InvMeanMS {
			t.Fatalf("%s: GH invoker latency below BASE", row.Entry.Prof.DisplayName())
		}
	}
	for _, tb := range []*metrics.Table{
		Fig4E2E(ds), Fig4Invoker(ds), Fig5(ds), Table2(ds), Table3(ds), Headline(ds),
	} {
		if numRows(tb) == 0 {
			t.Fatal("derived table empty")
		}
	}
	if numRows(Table1(ds)) < 3*3 {
		t.Fatal("Table 1 too small")
	}
}

func TestFig3LeftShape(t *testing.T) {
	cfg := quick()
	cfg.MicroMappedPages = 6000
	tb, err := Fig3Left(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if numRows(tb) != 11 {
		t.Fatalf("rows = %d, want 11 sweep points", numRows(tb))
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Parse first and last data rows: columns are
	// dirty% base gh-nop gh fork base+rest gh-nop+rest gh+rest fork+rest.
	first := strings.Fields(lines[3])
	last := strings.Fields(lines[len(lines)-1])
	// At 100% dirty, fork's in-function latency must exceed gh's, which
	// must exceed base's (§5.2.1, §5.2.3).
	base100 := cellValue(t, last[1])
	gh100 := cellValue(t, last[3])
	fork100 := cellValue(t, last[4])
	if !(fork100 > gh100 && gh100 > base100) {
		t.Fatalf("at 100%%: fork %v, gh %v, base %v — ordering broken", fork100, gh100, base100)
	}
	// GH grows with dirty fraction.
	gh0 := cellValue(t, first[3])
	if gh100 <= gh0 {
		t.Fatalf("gh latency flat: %v -> %v", gh0, gh100)
	}
	// GH-NOP tracks BASE closely: no tracking faults recur, so the only
	// gap is the fixed interposition cost (~0.1 ms, noticeable in percent
	// terms only because the microbenchmark itself is 2 ms).
	nop100 := cellValue(t, last[2])
	if nop100 > base100*1.10 {
		t.Fatalf("gh-nop %v far above base %v", nop100, base100)
	}
	if gh100 <= nop100 {
		t.Fatalf("gh %v not above gh-nop %v at full dirtying", gh100, nop100)
	}
	// The dashed GH line (with restoration) exceeds the solid one.
	ghRest100 := cellValue(t, last[7])
	if ghRest100 <= gh100 {
		t.Fatalf("gh+restore %v not above gh %v", ghRest100, gh100)
	}
}

func TestFig3RightShape(t *testing.T) {
	cfg := quick()
	cfg.MicroMappedPages = 20000
	tb, err := Fig3Right(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Split(strings.TrimSpace(tb.Render()), "\n")
	first := strings.Fields(out[3])
	last := strings.Fields(out[len(out)-1])
	// FORK grows with address-space size (first-touch); GH in-function
	// stays near-flat; GH+restore grows (pagemap scan).
	forkSmall, forkBig := cellValue(t, first[4]), cellValue(t, last[4])
	if forkBig < forkSmall*2 {
		t.Fatalf("fork latency did not grow with AS size: %v -> %v", forkSmall, forkBig)
	}
	ghSmall, ghBig := cellValue(t, first[3]), cellValue(t, last[3])
	if ghBig > ghSmall*3 {
		t.Fatalf("gh in-function latency grew too much with AS size: %v -> %v", ghSmall, ghBig)
	}
	ghRestSmall, ghRestBig := cellValue(t, first[7]), cellValue(t, last[7])
	if ghRestBig <= ghRestSmall {
		t.Fatalf("gh+restore did not grow with AS size: %v -> %v", ghRestSmall, ghRestBig)
	}
}

func TestFig6Comparable(t *testing.T) {
	cfg := quick()
	cfg.LatencySamples = 3
	tb := Fig6(measureNamed(t, cfg, "chaos (p)", "logging (p)", "pyaes (p)", "spectral (p)"))
	if numRows(tb) == 0 {
		t.Fatal("Fig 6 empty")
	}
	for _, line := range strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:] {
		f := strings.Fields(line)
		gh := cellValue(t, f[len(f)-2])
		fa := cellValue(t, f[len(f)-1])
		if gh <= 0 || fa <= 0 {
			t.Fatalf("non-positive restore durations: %s", line)
		}
	}
}

func TestFig7NearLinearScaling(t *testing.T) {
	tb, err := quick().fig7(entries(t, "bicg (c)", "seidel-2d (c)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:] {
		f := strings.Fields(line)
		one := cellValue(t, f[len(f)-4])
		four := cellValue(t, f[len(f)-1])
		if four < one*3 {
			t.Fatalf("scaling below 3x from 1->4 cores: %s", line)
		}
	}
}

func TestFig8BreakdownSums(t *testing.T) {
	cfg := quick()
	cfg.LatencySamples = 3
	tb := Fig8(measureNamed(t, cfg, "get-time (p)", "bicg (c)", "seidel-2d (c)"))
	for _, line := range strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:] {
		f := strings.Fields(line)
		// Last 13 columns are phase percentages; they must sum to ~100.
		var sum float64
		for _, c := range f[len(f)-13:] {
			sum += cellValue(t, c)
		}
		if sum < 95 || sum > 105 {
			t.Fatalf("phase percentages sum to %.1f: %s", sum, line)
		}
	}
}

// TestFig6And8ChooseTheirRows: Fig. 8 lists the Dataset's representatives in
// catalog.Representative14's order, not the Dataset's, and Fig. 6 leaves out
// the FaaSProfiler rows.
func TestFig6And8ChooseTheirRows(t *testing.T) {
	ds := measureNamed(t, quick(), "mdp (p)", "pyflate (p)", "bicg (c)", "get-time (p)")
	if got, want := strings.Join(rowNames(Fig8(ds)), ", "), "pyflate (p), mdp (p), get-time (p), bicg (c)"; got != want {
		t.Errorf("Fig. 8 rows: %s, want %s", got, want)
	}
	if got, want := strings.Join(rowNames(Fig6(ds)), ", "), "mdp (p), pyflate (p), bicg (c)"; got != want {
		t.Errorf("Fig. 6 rows: %s, want %s", got, want)
	}
}

func TestAblationUFFDCrossover(t *testing.T) {
	cfg := quick()
	tb, err := AblationUFFD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:]
	// At zero dirtied pages UFFD must win; at the largest sweep point
	// soft-dirty must win (§4.3).
	winner := func(line string) string {
		f := strings.Fields(line)
		return f[len(f)-1]
	}
	if winner(lines[0]) != "uffd" {
		t.Fatalf("UFFD should win at 0 dirty pages: %s", lines[0])
	}
	if winner(lines[len(lines)-1]) != "soft-dirty" {
		t.Fatalf("soft-dirty should win at high dirty counts: %s", lines[len(lines)-1])
	}
}

func TestAblationCoalesceSavings(t *testing.T) {
	cfg := quick()
	tb, err := AblationCoalesce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:]
	low := strings.Fields(lines[0])
	high := strings.Fields(lines[len(lines)-1])
	lowSave := cellValue(t, low[len(low)-1])
	highSave := cellValue(t, high[len(high)-1])
	if highSave <= lowSave {
		t.Fatalf("coalescing savings did not grow with density: %.1f%% -> %.1f%%", lowSave, highSave)
	}
	if highSave < 20 {
		t.Fatalf("coalescing savings at 100%% density only %.1f%%", highSave)
	}
}

func TestFig1ColdStart(t *testing.T) {
	e, _ := catalog.Lookup("get-time (p)")
	tb, err := Fig1ColdStart(quick(), e.Prof)
	if err != nil {
		t.Fatal(err)
	}
	if numRows(tb) != 2 {
		t.Fatalf("rows = %d", numRows(tb))
	}
}

func TestHeadlineDirections(t *testing.T) {
	ds := measureNamed(t, quick(), "chaos (p)", "logging (p)", "pyaes (p)", "spectral (p)", "deltablue (p)")
	out := Headline(ds).Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// E2E overhead median should be small (single digits of percent).
	e2eRow := strings.Fields(lines[3])
	med := cellValue(t, e2eRow[len(e2eRow)-4])
	if med < -5 || med > 25 {
		t.Fatalf("E2E overhead median %v%% implausible", med)
	}
}
