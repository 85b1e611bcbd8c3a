package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyParams keeps harness tests fast: tiny data, single repetition.
func tinyParams() Params {
	p := Defaults(0.03) // 300 transactions
	p.V = 500
	p.M = 400
	p.TauFrac = 0.03 // keeps even the Fig7 sweep's τ/3 point non-degenerate
	return p
}

func TestDefaultsMatchPaper(t *testing.T) {
	p := Defaults(1)
	if p.D != 10000 || p.V != 10000 || p.T != 10 || p.I != 10 {
		t.Errorf("defaults %+v do not match T10.I10.D10K / V=10K", p)
	}
	if p.M != 1600 || p.TauFrac != 0.003 {
		t.Errorf("defaults %+v do not match m=1600, τ=0.3%%", p)
	}
	if Defaults(0).Scale != 1 {
		t.Error("Defaults(0) should normalize scale to 1")
	}
}

func TestRunSchemeAllNames(t *testing.T) {
	p := tinyParams()
	txs, err := p.dataset(p.D, p.V, p.T)
	if err != nil {
		t.Fatal(err)
	}
	tau := p.Tau(len(txs))
	patterns := -1
	for _, scheme := range SchemeNames {
		met, err := RunScheme(scheme, txs, tau, p.M, p.K, 0, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if met.Scheme != scheme {
			t.Errorf("metrics labeled %q, want %q", met.Scheme, scheme)
		}
		if met.Total() <= 0 {
			t.Errorf("%s: non-positive total time", scheme)
		}
		// Every scheme mines the same number of patterns.
		if patterns == -1 {
			patterns = met.Patterns
		} else if met.Patterns != patterns {
			t.Errorf("%s mined %d patterns, others mined %d", scheme, met.Patterns, patterns)
		}
	}
	if patterns <= 0 {
		t.Fatal("degenerate workload")
	}
}

func TestRunSchemeUnknown(t *testing.T) {
	p := tinyParams()
	txs, _ := p.dataset(p.D, p.V, p.T)
	if _, err := RunScheme("XYZ", txs, 5, p.M, p.K, 0, 1, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunSchemeRepeatTakesBest(t *testing.T) {
	p := tinyParams()
	txs, _ := p.dataset(p.D, p.V, p.T)
	met, err := RunScheme("DFP", txs, p.Tau(len(txs)), p.M, p.K, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if met.Total() <= 0 {
		t.Error("non-positive time with repeats")
	}
}

func TestFig5ShapeAndMonotonicity(t *testing.T) {
	p := tinyParams()
	tables, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig5 returned %d tables", len(tables))
	}
	fdr := tables[0]
	if len(fdr.Rows) != 5 {
		t.Fatalf("fig5a has %d rows", len(fdr.Rows))
	}
	// FDR at the smallest m must be >= FDR at the largest m per scheme.
	for col := 1; col <= 4; col++ {
		first := parseF(t, fdr.Rows[0][col])
		last := parseF(t, fdr.Rows[len(fdr.Rows)-1][col])
		if last > first+1e-9 {
			t.Errorf("scheme %s: FDR rose from %.3f (m=400) to %.3f (m=6400)",
				fdr.Header[col], first, last)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	tables, err := Fig6(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("fig6 shape wrong: %+v", tables)
	}
}

func TestFig7TimesFallWithTau(t *testing.T) {
	tables, err := Fig7(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("fig7 has %d rows", len(rows))
	}
	// For APS (column 1), the loosest threshold must not be cheaper than
	// the tightest (more candidates at low τ).
	first := parseF(t, rows[0][1])
	last := parseF(t, rows[len(rows)-1][1])
	if last > first*3 {
		t.Errorf("APS time rose with τ: %.1f -> %.1f", first, last)
	}
}

func TestFig11And12And13Run(t *testing.T) {
	p := tinyParams()
	for _, fig := range []int{11, 12, 13} {
		tables, err := Figures[fig](p)
		if err != nil {
			t.Fatalf("fig%d: %v", fig, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("fig%d produced no rows", fig)
		}
	}
}

func TestFiguresMapComplete(t *testing.T) {
	for _, fig := range []int{5, 6, 7, 8, 9, 10, 11, 12, 13} {
		if Figures[fig] == nil {
			t.Errorf("figure %d has no driver", fig)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID: "figX", Title: "demo",
		Header: []string{"a", "long_header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "long_header", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,long_header") {
		t.Errorf("CSV missing header: %s", buf.String())
	}
}

func TestMsFormat(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.5" {
		t.Errorf("ms = %q", got)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	if _, err := fmtSscan(s, &f); err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return f
}
