package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/series"
	"repro/internal/server/api"
	"repro/internal/storage"
	"repro/internal/tsdb"
)

// env is where one invocation builds and keeps its files: everything is
// under the checkout, on its filesystem.
type env struct {
	root    string // repository root
	work    string // .bench_build
	lsmdBin string
	warmup  time.Duration // untimed phase before each measured one
	prime   time.Duration // request burst before the warm-up
}

// preloadBatch is the PutBatch size of set-up: one WAL record, one fsync.
const preloadBatch = 2000

// loaded is a store directory after set-up, with the model of its content.
type loaded struct {
	dir      string
	series   []*seriesState
	preloadS float64  // Open + create + PutBatch + Close
	stale    []string // stores of earlier set-up repetitions, deleted with this one
}

// load creates a fresh directory and fills it in process through
// tsdb.Open / CreateSeriesLabeled / PutBatch / Close. The points are drawn
// before the clock starts: generating inputs is not the store's work.
func load(e *env, w workloadDef, seed int64, tag string, wrap func(storage.Backend) storage.Backend) (ld *loaded, err error) {
	ld = &loaded{series: newSeriesSet(seed)}
	points := make([][]series.Point, len(ld.series))
	for i, s := range ld.series {
		points[i] = preloadPoints(w, s)
	}
	if ld.dir, err = os.MkdirTemp(e.work, "data-"+w.name+"-"+tag+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			discard(ld.dir)
		}
	}()

	start := time.Now()
	disk, err := storage.NewDiskBackend(ld.dir)
	if err != nil {
		return nil, err
	}
	var backend storage.Backend = disk
	if wrap != nil {
		backend = wrap(disk)
	}
	db, err := tsdb.Open(dbConfig(backend, false))
	if err != nil {
		return nil, err
	}
	for i, s := range ld.series {
		id, err := db.CreateSeriesLabeled(series.MustLabels(s.labels))
		if err != nil || id != s.id {
			db.Close()
			return nil, fmt.Errorf("create series %v: id %q, %v", s.labels, id, err)
		}
		for ps := points[i]; len(ps) > 0; {
			k := min(preloadBatch, len(ps))
			if err := db.PutBatch(id, ps[:k]); err != nil {
				db.Close()
				return nil, fmt.Errorf("preload %s: %w", id, err)
			}
			ps = ps[k:]
		}
		s.ack(points[i])
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("preload close: %w", err)
	}
	ld.preloadS = time.Since(start).Seconds()
	return ld, nil
}

// setUp sets up reps times — preload a fresh directory, start lsmd on it,
// wait for /healthz — and keeps the last store running. It returns how long
// each repetition took, from tsdb.Open to the answer; setup_s is the median.
// The earlier stores stay on disk until the run ends (ld.discard): on the
// reference volume a delete slows the file creation that follows it, and
// set-up is mostly file creation.
func setUp(e *env, w workloadDef, seed int64, reps int) (*loaded, *lsmd, []float64, error) {
	var times []float64
	var stale []string
	for {
		syscall.Sync()
		ld, err := load(e, w, seed, "lsmd", nil)
		if err != nil {
			discard(stale...)
			return nil, nil, nil, err
		}
		ld.stale = stale
		boot := time.Now()
		d, err := startLsmd(e.lsmdBin, ld.dir)
		if err != nil {
			ld.discard()
			return nil, nil, nil, err
		}
		times = append(times, ld.preloadS+time.Since(boot).Seconds())
		if len(times) >= reps {
			return ld, d, times, nil
		}
		d.kill()
		stale = append(stale, ld.dir)
	}
}

// discard deletes store directories, with a sync behind the deletes so
// that their journal commits are paid for here and not in the next timed
// interval. It is called when a run ends, see setUp.
func discard(dirs ...string) {
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
	syscall.Sync()
}

// discard deletes the store and the stores of the earlier set-ups.
func (ld *loaded) discard() { discard(append(ld.stale, ld.dir)...) }

// clientResult is what one client measured in one phase.
type clientResult struct {
	lat       [numOpKinds][]float64 // ms, completed and correct ops only
	late      []float64             // open loop: ms the generator sent after it could have
	attempted int
	failed    int
	firstErr  error

	// Accounting lsmd reports in /query answers, summed.
	aggs, rollupBuckets, rawPoints int
}

// runPhase drives every client against its target for dur and returns what
// each measured. Closed loop: a client sends its next request when the
// previous one completed. Open loop: request k of a client is due at
// start + k/rate and its latency counts from then, whenever it was sent.
func runPhase(w workloadDef, gens []*clientGen, tgts []target, dur time.Duration) ([]clientResult, time.Duration) {
	res := make([]clientResult, len(gens))
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			g, tgt := gens[c], tgts[c]
			var gap, offset time.Duration
			if w.ratePerClient > 0 {
				gap = time.Duration(float64(time.Second) / w.ratePerClient)
				offset = gap * time.Duration(c) / time.Duration(len(gens))
			}
			for k := 0; ; k++ {
				o := g.next() // built before the timed interval
				ready := time.Now()
				t0 := ready
				if gap > 0 {
					t0 = start.Add(offset + gap*time.Duration(k))
				}
				if !t0.Before(end) {
					return
				}
				if behind := time.Since(end); behind > 10*time.Second {
					// An open loop that cannot catch up must still end.
					r.attempted++
					r.failed++
					r.firstErr = fmt.Errorf("open loop fell %s behind its schedule", behind.Round(time.Second))
					return
				}
				// The runtime's timers overshoot by up to a millisecond:
				// sleep short of the due time and yield through the rest.
				if wait := time.Until(t0) - 1500*time.Microsecond; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(t0) {
					runtime.Gosched()
				}
				if gap > 0 {
					// Lateness is the generator's own: a request held up
					// by the previous answer is the store's delay, and
					// the latency from t0 already counts it.
					late := time.Since(t0)
					if ready.After(t0) {
						late = time.Since(ready)
					}
					r.late = append(r.late, ms(late))
				}
				err := tgt.do(o)
				lat := time.Since(t0)
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				g.ack(o)
				r.lat[o.kind] = append(r.lat[o.kind], ms(lat))
				if o.kind == opAggRollup {
					r.aggs++
					r.rollupBuckets += o.gotRollupBuckets
					r.rawPoints += o.gotRawPoints
				}
			}
		}(c)
	}
	wg.Wait()
	return res, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseStats merges the clients' results of one phase.
type phaseStats struct {
	lat       [numOpKinds][]float64
	writes    []float64
	reads     []float64
	late      []float64
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration

	aggs, rollupBuckets, rawPoints int
}

func merge(res []clientResult, elapsed time.Duration) *phaseStats {
	p := &phaseStats{elapsed: elapsed}
	for _, r := range res {
		for k := opKind(0); k < numOpKinds; k++ {
			p.lat[k] = append(p.lat[k], r.lat[k]...)
			if k.isRead() {
				p.reads = append(p.reads, r.lat[k]...)
			} else {
				p.writes = append(p.writes, r.lat[k]...)
			}
		}
		p.late = append(p.late, r.late...)
		p.attempted += r.attempted
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
		p.aggs += r.aggs
		p.rollupBuckets += r.rollupBuckets
		p.rawPoints += r.rawPoints
	}
	for k := range p.lat {
		sort.Float64s(p.lat[k])
	}
	sort.Float64s(p.writes)
	sort.Float64s(p.reads)
	sort.Float64s(p.late)
	return p
}

func (p *phaseStats) completed() int { return p.attempted - p.failed }

// quantile returns the q-quantile of sorted values (nearest rank) and
// whether at least ten samples lie beyond it; when they do not, the run was
// too short for that percentile.
func quantile(sorted []float64, q float64) (v float64, enough bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	i := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return sorted[i], q <= 0.5 || len(sorted)-1-i >= 10
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// selfCPUSeconds is this process's user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// loopback is one measured phase against a real lsmd with lsmd's own
// counters read before and after it.
type loopback struct {
	phase         *phaseStats
	before, after snapshot
	genCPU        float64 // generator CPU seconds during the phase
	throttled     int
}

// runLoopback warms up, quiesces and measures one phase of w against d.
func runLoopback(e *env, w workloadDef, d *lsmd, ld *loaded, gens []*clientGen, dur time.Duration) (*loopback, error) {
	tgts := make([]target, len(gens))
	hts := make([]*httpTarget, len(gens))
	for i := range gens {
		hts[i] = newHTTPTarget(d.base)
		tgts[i] = hts[i]
		defer hts[i].close()
	}
	ids := make([]string, len(ld.series))
	for i, s := range ld.series {
		ids[i] = s.id
	}

	syscall.Sync()
	time.Sleep(quiesce)
	prime(d.base, len(gens), e.prime)
	warm := merge(runPhase(w, gens, tgts, e.warmup))
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}

	lb := &loopback{}
	var err error
	if lb.before, err = d.snapshot(ids); err != nil {
		return nil, err
	}
	cpu0 := selfCPUSeconds()
	lb.phase = merge(runPhase(w, gens, tgts, dur))
	lb.genCPU = selfCPUSeconds() - cpu0
	if lb.after, err = d.snapshot(ids); err != nil {
		return nil, err
	}
	for _, t := range hts {
		lb.throttled += t.throttled
	}
	return lb, nil
}

// prime sends /healthz requests back to back from n connections for dur.
// The reference box wakes idle CPUs slowly after a quiet spell and quickly
// after a busy one, and stays that way for minutes: the same ingest run
// measures 62 or 77 ops/s, reads 1.2 or 0.7 ms. Set-up and the quiesce leave
// the box in either state; a burst of cheap requests puts it in the quick
// one before every warm-up.
func prime(base string, n int, dur time.Duration) {
	var wg sync.WaitGroup
	end := time.Now().Add(dur)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newHTTPTarget(base)
			defer t.close()
			for time.Now().Before(end) {
				resp, err := t.hc.Get(base + "/healthz")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// auditScan reads every series back through lsmd and compares count, order
// and value checksum with the model of acknowledged points. It returns the
// number of series that differ.
func auditScan(d *lsmd, all []*seriesState) (int, error) {
	bad := 0
	for _, s := range all {
		var sr api.ScanResponse
		if err := d.getJSON("/scan?series="+s.id, &sr); err != nil {
			return 0, err
		}
		h := fnv.New64a()
		ordered := sr.Error == "" && sr.Count == len(sr.Points)
		for i, p := range sr.Points {
			if i > 0 && p.TG <= sr.Points[i-1].TG {
				ordered = false
			}
			hashPoint(h, p.TG, p.V)
		}
		if !ordered || len(sr.Points) != s.count || h.Sum64() != s.checksum() {
			fmt.Fprintf(os.Stderr, "audit: series %s: got %d points (ordered %v), model has %d\n", s.id, len(sr.Points), ordered, s.count)
			bad++
		}
	}
	return bad, nil
}

// auditCounts asks for one all-covering aggregate bucket per series: the
// cheap count check made after the restart.
func auditCounts(d *lsmd, all []*seriesState) (int, error) {
	bad := 0
	for _, s := range all {
		var ar api.AggregateResponse
		if err := d.getJSON(fmt.Sprintf("/aggregate?series=%s&width=%d", s.id, int64(rollupWindow)<<30), &ar); err != nil {
			return 0, err
		}
		var n int64
		for _, b := range ar.Buckets {
			n += b.Count
		}
		if int(n) != s.count {
			fmt.Fprintf(os.Stderr, "audit after restart: series %s: got %d points, model has %d\n", s.id, n, s.count)
			bad++
		}
	}
	return bad, nil
}

// result is one run of one workload: the contract's JSON object plus the
// notes the report prints.
type result struct {
	workload  string
	seed      int64
	hash      uint64
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int // sample count behind each latency metric
	notes     []string
}

// runWorkload measures the end-to-end metrics of one workload.
func runWorkload(e *env, w workloadDef, seed int64, dur time.Duration, reps int) (*result, error) {
	ld, d, setups, err := setUp(e, w, seed, reps)
	if err != nil {
		return nil, err
	}
	defer ld.discard()
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	gens := make([]*clientGen, numClients)
	for c := range gens {
		gens[c] = newClientGen(w, seed, c, ld.series)
	}
	lb, err := runLoopback(e, w, d, ld, gens, dur)
	if err != nil {
		return nil, err
	}
	p := lb.phase
	res := &result{
		workload: w.name, seed: seed,
		attempted: p.attempted, failed: p.failed,
		metrics: make(map[string]float64), samples: make(map[string]int),
	}
	res.hash = gensHash(gens)
	if p.firstErr != nil {
		res.notes = append(res.notes, "first failed op: "+p.firstErr.Error())
	}

	// Drain, then read the quantities that are only meaningful at rest.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.waitDrained(ctx); err != nil {
		return nil, err
	}
	var st api.StatsResponse
	if err := d.getJSON("/stats", &st); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Audit: every acknowledged point is there, in order, with its value;
	// and is still there after a graceful stop and a restart.
	bad, err := auditScan(d, ld.series)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(ld.dir)
	if err != nil {
		return nil, err
	}
	if d, err = startLsmd(e.lsmdBin, ld.dir); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	badAfter, err := auditCounts(d, ld.series)
	if err != nil {
		return nil, err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}
	res.failed += bad + badAfter
	res.attempted += 2 * len(ld.series)
	res.correct = res.failed == 0

	stored := 0
	for _, s := range ld.series {
		stored += s.count
	}
	ops := float64(p.completed())
	m := res.metrics
	m["setup_s"] = median(setups)
	res.notes = append(res.notes, fmt.Sprintf("set-ups took %.3f s", setups))
	m["ops_per_s"] = ops / p.elapsed.Seconds()
	for _, lm := range []struct {
		name string
		vals []float64
		q    float64
	}{
		{"write_p50_ms", p.writes, 0.5}, {"read_p50_ms", p.reads, 0.5},
	} {
		v, enough := quantile(lm.vals, lm.q)
		m[lm.name], res.samples[lm.name] = v, len(lm.vals)
		if !enough {
			res.notes = append(res.notes, fmt.Sprintf("short run: %s has %d samples", lm.name, len(lm.vals)))
		}
	}
	m["cpu_us_per_op"] = (lb.after.cpu - lb.before.cpu) / ops * 1e6
	m["rss_mb"] = rss
	m["write_amp"] = steadyWA(lb.before.stats, st)
	m["disk_bytes_per_point"] = float64(disk) / float64(stored)

	// A generator that is itself the bottleneck measures itself.
	if frac := lb.genCPU / p.elapsed.Seconds() / numClients; frac > 0.25 {
		res.notes = append(res.notes, fmt.Sprintf("invalid run: generator used %.2f of its CPUs", frac))
		res.correct = false
	}
	if late, _ := quantile(p.late, 0.95); late > 1 {
		res.notes = append(res.notes, fmt.Sprintf("invalid run: generator sent p95 %.2f ms late", late))
		res.correct = false
	}
	return res, nil
}

// steadyWA is write amplification across the measured phase, over the
// points that reached an SSTable: points written / (points written - points
// rewritten), from /stats at the start of the phase and after the drain.
// /stats.total_wa divides by every ingested point, buffered ones too, so it
// saw-tooths with how full the memtables were when the run stopped.
func steadyWA(before, after api.StatsResponse) float64 {
	var written, rewritten int64
	for _, s := range after.Series {
		written += s.PointsWritten
		rewritten += s.PointsRewritten
	}
	for _, s := range before.Series {
		written -= s.PointsWritten
		rewritten -= s.PointsRewritten
	}
	if written == rewritten {
		return 0
	}
	return float64(written) / float64(written-rewritten)
}

// newEnv locates the repository from the benchmark's own directory and
// prepares the work directory; without an lsmd binary it builds one.
func newEnv(lsmdBin string) (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// The command runs from bench/ (go -C bench run .) or from the root.
	root := wd
	if filepath.Base(wd) == "bench" {
		root = filepath.Dir(wd)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "lsmd")); err != nil {
		return nil, fmt.Errorf("no repository around %s: %w", wd, err)
	}
	e := &env{root: root, work: filepath.Join(root, ".bench_build"), warmup: warmup, prime: primeFor}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	if e.lsmdBin = lsmdBin; lsmdBin == "" {
		e.lsmdBin, err = buildLsmd(root, e.work)
	}
	return e, err
}
