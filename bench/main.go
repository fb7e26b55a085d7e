// Command bench is the repository's benchmark: it runs a workload against a
// real lsmd child process over loopback HTTP, audits every answer against a
// model of the acknowledged points, and prints the metrics BENCHMARK.json
// names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	dur       time.Duration
	trace     bool
	lsmdBin   string
	sets      int
	varySeed  bool
	agreement bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty: all four, one after the other)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	seconds := flag.Int("seconds", runSeconds, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
	flag.StringVar(&o.lsmdBin, "lsmd", "", "lsmd binary (empty: go build ./cmd/lsmd into .bench_build)")
	flag.IntVar(&o.sets, "sets", 0, "calibration: run the workloads this many times and print each set and the spread")
	flag.BoolVar(&o.varySeed, "vary-seed", false, "with -sets: set k runs with seed+k")
	flag.BoolVar(&o.agreement, "check-agreement", false, "run two groups of -sets sets (default 1) and fail if a median differs by more than its bound")
	manifest := flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	flag.Parse()
	if *manifest {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	o.dur, o.trace = time.Duration(*seconds)*time.Second, *trace == 1
	// Interrupted, the benchmark still stops its child and waits for it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		killLive()
		fmt.Fprintln(os.Stderr, "bench:", s)
		os.Exit(1)
	}()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ws := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []workloadDef{w}
	}
	e, err := newEnv(o.lsmdBin)
	if err != nil {
		return err
	}
	fmt.Printf("lsmd %v, GOMAXPROCS=2, %d clients on %d keep-alive connections, %d series, interval %d, warm-up %s, measured %s\n",
		lsmdFlags("ADDR", "DIR")[4:], numClients, numClients, numSeries, genInterval, warmup, o.dur)

	if o.sets > 0 || o.agreement {
		n := max(o.sets, 1)
		a, ok, err := runSets(e, ws, o.seed, o.varySeed, n, o.dur)
		if err != nil {
			return err
		}
		printSets(ws, a)
		if o.agreement {
			b, okB, err := runSets(e, ws, o.seed, o.varySeed, n, o.dur)
			if err != nil {
				return err
			}
			printSets(ws, b)
			ok = checkAgreement(ws, a, b) && ok && okB
		}
		if !ok {
			return fmt.Errorf("calibration: a run failed its audit or two groups disagree")
		}
		return nil
	}

	ok := true
	for _, w := range ws {
		var res *result
		defs := endToEnd
		if o.trace {
			defs = perLayer
			res, err = runTraced(e, w, o.seed, o.dur)
		} else {
			res, err = runWorkload(e, w, o.seed, o.dur, setupReps)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(res, defs)
		ok = ok && res.correct
	}
	if !ok {
		return fmt.Errorf("a run failed ops or its audit")
	}
	return nil
}

// printResult prints every metric by name with its unit, then — as the last
// line — the JSON object of the benchmark contract.
func printResult(r *result, defs []metricDef) {
	fmt.Printf("workload %s seed %d schedule %016x\n", r.workload, r.seed, r.hash)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.notes = append(r.notes, "not finite: "+d.name)
			r.correct, out.Correct, v = false, false, 0
		}
		out.Metrics[d.name] = mv{v, d.unit}
		fmt.Printf("  %-36s %16.4f %-6s", d.name, v, d.unit)
		if d.source != "" {
			fmt.Printf(" [%s]", d.source)
		}
		if n, ok := r.samples[d.name]; ok {
			fmt.Printf(" (%d samples)", n)
		}
		fmt.Println()
	}
	fmt.Printf("  ops_attempted %d ops_failed %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	b, _ := json.Marshal(out) // cannot fail: every value is finite
	fmt.Println(string(b))
}
