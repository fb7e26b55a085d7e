package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON pins BENCHMARK.json to the lists this program reports
// from: every name once, well formed, with a unit.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from -print-benchmark-json; regenerate it")
	}
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
	for _, w := range workloads {
		check(w.name, "-")
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
}

func TestScheduleHash(t *testing.T) {
	for _, w := range workloads {
		a, b, c := scheduleHash(w, 1, 200), scheduleHash(w, 1, 200), scheduleHash(w, 2, 200)
		if a != b {
			t.Errorf("%s: same seed, schedules %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same schedule %x", w.name, a)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

var smoke struct {
	once sync.Once
	env  *env
	err  error
}

// smokeEnv builds lsmd once for all tests and shortens the untimed phases.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	smoke.once.Do(func() {
		if smoke.env, smoke.err = newEnv(""); smoke.err == nil {
			smoke.env.warmup, smoke.env.prime = 200*time.Millisecond, 100*time.Millisecond
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.env
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: correct %v, %d of %d failed, notes %v", res.workload, res.correct, res.failed, res.attempted, res.notes)
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", res.workload, d.name, v)
		}
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", res.workload, len(res.metrics), len(defs))
	}
}

// TestSmoke runs every workload for one second against a real lsmd child,
// audit and restart check included.
func TestSmoke(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads {
		res, err := runWorkload(e, w, 1, time.Second, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, res, endToEnd)
		for _, m := range endToEnd {
			// One second is too short for a memtable to fill and flush.
			if res.metrics[m.name] <= 0 && m.name != "write_amp" {
				t.Errorf("%s: %s = %v, want positive", w.name, m.name, res.metrics[m.name])
			}
		}
	}
}

// TestTraceSmoke runs the traced run of the workload that issues every op
// kind and checks the span file: it parses and every parent is present.
func TestTraceSmoke(t *testing.T) {
	e := smokeEnv(t)
	w, _ := workloadByName("dashboard-read")
	res, err := runTraced(e, w, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, perLayer)
	data, err := os.ReadFile(filepath.Join(e.root, "bench", "out", "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	names := make(map[string]int)
	for _, s := range spans {
		names[s.Name]++
		if s.ID != rootSpan && !ids[s.Parent] {
			t.Fatalf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"request", "server.handle", "tsdb.put_batch", "tsdb.scan", "tsdb.query_match", "storage.append", "storage.range_read"} {
		if names[want] == 0 {
			t.Errorf("no %s span among %d", want, len(spans))
		}
	}
}
