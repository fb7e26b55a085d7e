package api

import (
	"math"
	"testing"
)

func TestLineRoundTrip(t *testing.T) {
	pts := []Point{
		{Series: "root.v1.temp", TG: 42, TA: 50, V: 3.25},
		{Series: "s", TG: -7, TA: 0, V: 0},
		{Series: "s", TG: 1, AssignTA: true, V: math.MaxFloat64},
		{Series: "s", TG: 1, TA: 2, V: -1e-300},
	}
	for _, p := range pts {
		got, err := ParseLine(FormatLine(p))
		if err != nil {
			t.Fatalf("ParseLine(FormatLine(%+v)): %v", p, err)
		}
		if got != p {
			t.Errorf("round trip %+v -> %q -> %+v", p, FormatLine(p), got)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"s 1 2",          // 3 fields
		"s 1 2 3 4",      // 5 fields
		"s x 2 3",        // bad t_g
		"s 1 y 3",        // bad t_a
		"s 1 2 notfloat", // bad value
		"s 1 2 NaN",      // non-finite values: no JSON response can carry them
		"s 1 2 Inf",
		"s 1 2 +Inf",
		"s 1 2 -Inf",
		"s 1 2 infinity",
		"s 1 2 1e999",
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

func TestParseLineAssignTA(t *testing.T) {
	p, err := ParseLine("series.a 100 - 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.AssignTA || p.TG != 100 || p.V != 2.5 {
		t.Errorf("got %+v", p)
	}
}
