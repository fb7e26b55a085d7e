package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func quartileSpread(vs []float64) float64 {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	m := len(x)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(x)
}

// runSets runs each workload sets times and returns the end-to-end values,
// cells[workload][metric][set].
func runSets(e *env, ws []workloadDef, seed int64, varySeed bool, sets int, dur time.Duration) (map[string]map[string][]float64, bool, error) {
	cells := make(map[string]map[string][]float64)
	ok := true
	for s := 0; s < sets; s++ {
		for _, w := range ws {
			sd := seed
			if varySeed {
				sd += int64(s)
			}
			res, err := runWorkload(e, w, sd, dur, setupReps)
			if err != nil {
				return nil, false, err
			}
			ok = ok && res.correct
			if cells[w.name] == nil {
				cells[w.name] = make(map[string][]float64)
			}
			for _, m := range endToEnd {
				cells[w.name][m.name] = append(cells[w.name][m.name], res.metrics[m.name])
			}
			fmt.Printf("set %d %s seed %d: failed %d of %d %v\n", s+1, w.name, sd, res.failed, res.attempted, res.notes)
		}
	}
	return cells, ok, nil
}

// printSets prints, per workload and end-to-end metric, each set's value,
// the median, the quartile spread and the largest difference between two
// sets, the last two as shares of the median.
func printSets(ws []workloadDef, cells map[string]map[string][]float64) {
	for _, w := range ws {
		fmt.Printf("\n%s\n  %-22s %10s %8s %8s %6s  values\n", w.name, "metric", "median", "spread", "maxdiff", "bound")
		for _, m := range endToEnd {
			vs := cells[w.name][m.name]
			med := median(vs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Printf("  %-22s %10.4f %7.1f%% %7.1f%% %5.0f%% ", m.name, med, 100*quartileSpread(vs), 100*(hi-lo)/med, 100*m.bound)
			for _, v := range vs {
				fmt.Printf(" %.4g", v)
			}
			fmt.Println()
		}
	}
}

// checkAgreement compares the medians of two groups of sets cell by cell
// and reports every cell whose medians differ, in either direction, by more
// than the metric's bound: the two groups ran the same code.
func checkAgreement(ws []workloadDef, a, b map[string]map[string][]float64) bool {
	agree := true
	for _, w := range ws {
		for _, m := range endToEnd {
			ma, mb := median(a[w.name][m.name]), median(b[w.name][m.name])
			diff := (mb - ma) / ma
			mark := ""
			if math.Abs(diff) > m.bound {
				mark, agree = "  DISAGREE", false
			}
			fmt.Printf("  %-16s %-22s %10.4f %10.4f %+6.1f%% (bound %.0f%%)%s\n", w.name, m.name, ma, mb, 100*diff, 100*m.bound, mark)
		}
	}
	return agree
}
