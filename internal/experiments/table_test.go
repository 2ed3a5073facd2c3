package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 12345.0)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "alpha") {
		t.Fatalf("rendered table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("x,y", `q"z`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `"x,y"`) || !strings.Contains(got, `"q""z"`) {
		t.Fatalf("CSV escaping wrong: %q", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Fatalf("missing header: %q", got)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1234.5: "1234",
		42.42:  "42.4",
		1.2345: "1.234",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
