package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEqual(got, 2) {
		t.Fatalf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{2, 0}); got != 0 {
		t.Fatalf("GeoMean with zero = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
}

func TestGeoMeanLeqMean(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("beta", 42)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(out, "1.500") || !strings.Contains(out, "42") {
		t.Fatalf("cells missing:\n%s", out)
	}
	if tab.Rows() != 2 {
		t.Fatalf("Rows = %d", tab.Rows())
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("short", "x")
	tab.AddRow("a-much-longer-cell", "y")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	// Column b starts at the same offset on every row.
	idx := strings.Index(lines[2], "x")
	if strings.Index(lines[3], "y") != idx {
		t.Fatalf("columns misaligned:\n%s", tab.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{1234.5, "1234"}, // %.0f rounds half to even
		{1.2345, "1.234"},
		{0.01, "0.0100"},
		{1e-7, "1.000e-07"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("plain", 1)
	tab.AddRow("with,comma", `say "hi"`)
	got := tab.CSV()
	want := "name,value\nplain,1\n\"with,comma\",\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}
