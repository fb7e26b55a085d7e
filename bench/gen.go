package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/dist"
	"repro/internal/series"
	"repro/internal/sstable"
	"repro/internal/workload"
)

// streamEpoch is how many points of a series' arrival-ordered stream are
// generated at a time. Out-of-order arrivals do not cross an epoch edge.
const streamEpoch = 4096

// stream yields one series' points in arrival order, with lognormal delays
// via workload.Synthetic. Generation times are k*genInterval for k = 1, 2,
// ... and never repeat, so the last-write-wins model of a series is the set
// of its acknowledged points.
type stream struct {
	seed  int64
	d     dist.Distribution
	next  int64 // generation index the next epoch starts after
	buf   []series.Point
	epoch int64
}

// take returns the next n points of the stream.
func (s *stream) take(n int) []series.Point {
	out := make([]series.Point, 0, n)
	for len(out) < n {
		if len(s.buf) == 0 {
			s.fill(streamEpoch)
		}
		k := min(n-len(out), len(s.buf))
		out = append(out, s.buf[:k]...)
		s.buf = s.buf[k:]
	}
	return out
}

func (s *stream) fill(n int) {
	off := s.next * genInterval
	s.buf = workload.Synthetic(n, genInterval, s.d, s.seed+s.epoch*7919)
	for i := range s.buf {
		s.buf[i].TG += off
		s.buf[i].TA += off
	}
	s.next += int64(n)
	s.epoch++
}

// seriesState is one series as the generator sees it: its stream of points
// still to be written and the model of every acknowledged point.
type seriesState struct {
	idx    int
	id     string // canonical label-hash ID writes and scans address
	host   int
	labels map[string]string
	src    *stream

	vals  []float64 // vals[tg/genInterval], -1 where no point is acknowledged
	count int
	maxTG int64
}

func (s *seriesState) ack(ps []series.Point) {
	for _, p := range ps {
		i := int(p.TG / genInterval)
		for len(s.vals) <= i {
			s.vals = append(s.vals, -1)
		}
		if s.vals[i] < 0 {
			s.count++
		}
		s.vals[i] = p.V
		if p.TG > s.maxTG {
			s.maxTG = p.TG
		}
	}
}

// rangeIdx clips [lo, hi] to the model's index range.
func (s *seriesState) rangeIdx(lo, hi int64) (int, int) {
	a := int((max(lo, 0) + genInterval - 1) / genInterval)
	b := int(hi / genInterval)
	if hi < 0 {
		b = -1
	}
	return a, min(b, len(s.vals)-1)
}

// countRange returns how many acknowledged points have lo <= TG <= hi.
func (s *seriesState) countRange(lo, hi int64) int {
	a, b := s.rangeIdx(lo, hi)
	n := 0
	for i := a; i <= b; i++ {
		if s.vals[i] >= 0 {
			n++
		}
	}
	return n
}

// bucketsRange returns how many epoch-aligned buckets of the given width
// hold at least one acknowledged point in [lo, hi].
func (s *seriesState) bucketsRange(lo, hi, width int64) int {
	a, b := s.rangeIdx(lo, hi)
	n, last := 0, int64(math.MinInt64)
	for i := a; i <= b; i++ {
		if s.vals[i] < 0 {
			continue
		}
		if st := sstable.BucketStart(int64(i)*genInterval, width); st != last {
			n, last = n+1, st
		}
	}
	return n
}

// checksum folds the model in generation-time order; auditScan folds the
// store's answer the same way.
func (s *seriesState) checksum() uint64 {
	h := fnv.New64a()
	for i, v := range s.vals {
		if v >= 0 {
			hashPoint(h, int64(i)*genInterval, v)
		}
	}
	return h.Sum64()
}

func hashPoint(h io.Writer, tg int64, v float64) {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(tg) >> (8 * i))
		b[8+i] = byte(math.Float64bits(v) >> (8 * i))
	}
	h.Write(b[:])
}

// newSeriesSet builds the 64 labeled series and their write streams for one
// workload and seed. Series idx = host*numMetrics + metric.
func newSeriesSet(seed int64) []*seriesState {
	set := make([]*seriesState, numSeries)
	for i := range set {
		host, metric := i/numMetrics, i%numMetrics
		labels := map[string]string{"host": "h" + strconv.Itoa(host), "metric": "m" + strconv.Itoa(metric)}
		set[i] = &seriesState{
			idx: i, host: host, labels: labels,
			id:  series.MustLabels(labels).ID(),
			src: &stream{seed: seed*1_000_003 + int64(i), d: dist.NewLognormal(4, 1.5)},
		}
	}
	return set
}

// preloadPoints returns the points set-up stores in series s before lsmd
// starts, and switches the stream to the workload's own delay distribution.
// The preload always has M1 delays so every workload starts from tables
// that overlap the way an ordinary fleet's do.
func preloadPoints(w workloadDef, s *seriesState) []series.Point {
	s.src.fill(preloadPerSeries)
	ps := s.src.take(preloadPerSeries)
	s.src.d = dist.NewLognormal(w.delayMu, w.delaySigma)
	return ps
}

// op is one request, fully built before its timed interval starts.
type op struct {
	kind   opKind
	s      *seriesState // write, scan_*: the series addressed
	host   int          // agg_rollup: the host label matched
	lo, hi int64
	points []series.Point
	body   []byte // write: line-protocol body
	path   string // reads: request path and query

	wantPoints  int // reads: result points the model predicts
	wantBuckets int // agg_rollup: bucket rows over all matched series

	// agg_rollup: the split the store reports for its answer.
	gotRollupBuckets, gotRawPoints int
}

// clientGen is one client's seeded op schedule. A client owns the series of
// half the hosts and touches no other, so what every read must return is
// decided by this client's own acknowledged writes.
type clientGen struct {
	w      workloadDef
	rng    *rand.Rand
	all    []*seriesState
	own    []*seriesState
	hosts  []int
	zipf   *rand.Zipf
	step   int
	cursor int
	last   *seriesState
	hash   hash.Hash64
}

func newClientGen(w workloadDef, seed int64, client int, all []*seriesState) *clientGen {
	g := &clientGen{w: w, all: all, hash: fnv.New64a()}
	g.rng = rand.New(rand.NewSource(seed*7_368_787 + int64(client) + 1))
	for h := client * numHosts / numClients; h < (client+1)*numHosts/numClients; h++ {
		g.hosts = append(g.hosts, h)
		g.own = append(g.own, all[h*numMetrics:(h+1)*numMetrics]...)
	}
	if w.hotSeries > 0 {
		g.own = g.own[:w.hotSeries]
	}
	g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(len(g.own)-1))
	g.last = g.own[0]
	return g
}

// next builds the client's next op.
func (g *clientGen) next() *op {
	var o *op
	if g.w.dashboard {
		o = g.nextDashboard()
	} else {
		// Cyclic: writesPerRead writes, then a recent-window scan of the
		// series just written. An open loop writes its series in turn. A
		// closed loop draws them: two clients rotating in lock-step keep
		// pairing the same two series, and whether a pair shares an ingest
		// shard and a WAL shard changes how fast both are served.
		if g.step < g.w.writesPerRead {
			i := g.cursor % len(g.own)
			if g.w.ratePerClient == 0 {
				i = g.rng.Intn(len(g.own))
			}
			o = g.write(g.own[i])
			g.cursor++
			g.step++
		} else {
			o = g.scanRecent(g.last)
			g.step = 0
		}
	}
	g.mix(o)
	return o
}

func (g *clientGen) nextDashboard() *op {
	if g.rng.Float64() < 0.2 {
		return g.write(g.own[g.rng.Intn(len(g.own))])
	}
	switch u := g.rng.Float64(); {
	case u < 0.70:
		return g.scanRecent(g.own[g.zipf.Uint64()])
	case u < 0.85:
		s := g.own[g.rng.Intn(len(g.own))]
		span := int64(preloadPerSeries*genInterval - histWindow)
		lo := genInterval + g.rng.Int63n(span)
		return g.scan(opScanHist, s, lo, lo+histWindow-1)
	default:
		host := g.hosts[g.rng.Intn(len(g.hosts))]
		span := int64(preloadPerSeries*genInterval - aggRange)
		lo := genInterval + g.rng.Int63n(span)
		return g.agg(host, lo, lo+aggRange-1)
	}
}

func (g *clientGen) write(s *seriesState) *op {
	o := &op{kind: opWrite, s: s, points: s.src.take(g.w.writePoints)}
	o.body = make([]byte, 0, len(o.points)*(len(s.id)+48))
	for _, p := range o.points {
		o.body = append(o.body, s.id...)
		o.body = append(o.body, ' ')
		o.body = strconv.AppendInt(o.body, p.TG, 10)
		o.body = append(o.body, ' ')
		o.body = strconv.AppendInt(o.body, p.TA, 10)
		o.body = append(o.body, ' ')
		o.body = strconv.AppendFloat(o.body, p.V, 'g', -1, 64)
		o.body = append(o.body, '\n')
	}
	g.last = s
	return o
}

func (g *clientGen) scanRecent(s *seriesState) *op {
	return g.scan(opScanRecent, s, s.maxTG-recentWindow, s.maxTG)
}

func (g *clientGen) scan(kind opKind, s *seriesState, lo, hi int64) *op {
	return &op{
		kind: kind, s: s, lo: lo, hi: hi,
		path:       fmt.Sprintf("/scan?series=%s&lo=%d&hi=%d", s.id, lo, hi),
		wantPoints: s.countRange(lo, hi),
	}
}

func (g *clientGen) agg(host int, lo, hi int64) *op {
	o := &op{
		kind: opAggRollup, host: host, lo: lo, hi: hi,
		path: fmt.Sprintf("/query?match=host%%3Dh%d&lo=%d&hi=%d&width=%d", host, lo, hi, aggWidth),
	}
	for _, s := range g.all[host*numMetrics : (host+1)*numMetrics] {
		o.wantPoints += s.countRange(lo, hi)
		o.wantBuckets += s.bucketsRange(lo, hi, aggWidth)
	}
	return o
}

// ack records a write the store acknowledged.
func (g *clientGen) ack(o *op) {
	if o.kind == opWrite {
		o.s.ack(o.points)
	}
}

// mix folds the op into the schedule hash: same seed, same hash.
func (g *clientGen) mix(o *op) {
	idx := o.host
	if o.s != nil {
		idx = o.s.idx
	}
	hashPoint(g.hash, int64(o.kind)<<32|int64(idx), float64(len(o.points)))
	hashPoint(g.hash, o.lo, float64(o.hi))
	for _, p := range o.points {
		hashPoint(g.hash, p.TG, p.V)
	}
}

// scheduleHash is the hash of the first n ops of every client when every
// write is acknowledged: the identity of a (workload, seed) pair's inputs.
func scheduleHash(w workloadDef, seed int64, n int) uint64 {
	all := newSeriesSet(seed)
	for _, s := range all {
		s.ack(preloadPoints(w, s))
	}
	gens := make([]*clientGen, numClients)
	for c := range gens {
		gens[c] = newClientGen(w, seed, c, all)
		for i := 0; i < n; i++ {
			gens[c].ack(gens[c].next())
		}
	}
	return gensHash(gens)
}

// gensHash combines the clients' schedule hashes.
func gensHash(gens []*clientGen) uint64 {
	var sum uint64
	for _, g := range gens {
		sum = sum*1_099_511_628_211 + g.hash.Sum64()
	}
	return sum
}
