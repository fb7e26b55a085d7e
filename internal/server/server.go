// Package server is the network front-end over the multi-series tsdb
// layer: an HTTP server exposing batched writes (text line protocol or
// JSON) and scan/aggregate/series/stats reads, with a sharded bounded
// ingest pipeline, explicit backpressure (429 + Retry-After), Prometheus
// metrics, and graceful drain-and-flush shutdown. It is the substrate the
// ROADMAP's scaling work (sharding, replication, admission control) plugs
// into.
//
// Endpoints:
//
//	POST /write      line protocol "series t_g t_a value" (or JSON)
//	GET  /scan       ?series=S&lo=&hi=
//	GET  /aggregate  ?series=S&lo=&hi=&width=
//	GET  /query      ?match=region=eu,device=~d[0-9]+&lo=&hi=[&width=&workers=&limit=]
//	GET  /series     [?match=...]
//	POST /series     {"name":...} or {"labels":{...}}
//	GET  /series/{series}/stats
//	GET  /stats
//	GET  /metrics    Prometheus text format
//	GET  /healthz
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/index"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/server/api"
	"repro/internal/tsdb"
	"repro/internal/wal/groupwal"
)

// DefaultMaxBody bounds the size of one write request body.
const DefaultMaxBody = 32 << 20

// Config parameterizes a Server.
type Config struct {
	// DB is the underlying store. Required.
	DB *tsdb.DB
	// Shards is the number of ingest worker goroutines (series are hashed
	// across them). Zero selects GOMAXPROCS, capped at 16.
	Shards int
	// QueueLen is the per-shard queue capacity in request batches. Zero
	// selects 128. When a shard's queue is full, its part of a write is
	// rejected with 429.
	QueueLen int
	// MaxBody caps the write request body size in bytes (zero selects
	// DefaultMaxBody).
	MaxBody int64
	// RetryAfter is the Retry-After hint returned with 429 responses (zero
	// selects 1s).
	RetryAfter time.Duration
	// CloseDB makes Close also close the DB after draining and flushing.
	CloseDB bool
	// Now supplies server-assigned arrival timestamps (t_a fields written
	// as "-"); nil selects wall-clock Unix milliseconds.
	Now func() int64
}

// Server is the HTTP ingestion/query server.
type Server struct {
	cfg  Config
	db   *tsdb.DB
	pool *ingestPool
	mux  *http.ServeMux

	httpSrv  *http.Server
	listener net.Listener

	writeRequests   atomic.Int64
	writesRejected  atomic.Int64 // requests that saw any rejection
	writesThrottled atomic.Int64 // rejections caused by compaction backpressure
	scanRequests    atomic.Int64
	aggRequests     atomic.Int64
	queryRequests   atomic.Int64
	scannedPoints   atomic.Int64

	// Rollup-path accounting: precomputed buckets folded into aggregate
	// answers, and how many reads used at least one (the rest ran fully
	// raw — no eligible rollup, or widths that don't divide evenly).
	rollupBuckets    atomic.Int64
	rollupServedAggs atomic.Int64

	latMu    sync.Mutex
	writeLat *metrics.Histogram // write request latency, seconds

	// readMu guards reads, the per-series read-path accounting fed by every
	// scan/aggregate: cumulative ScanStats sums, the last scan's ScanStats,
	// and a scan-latency histogram. Exposed on /metrics and
	// /series/{series}/stats.
	readMu sync.Mutex
	reads  map[string]*seriesReadStats

	closed atomic.Bool
}

// seriesReadStats accumulates one series' server-side read accounting.
type seriesReadStats struct {
	scans         int64
	tablesTouched int64
	tablePoints   int64
	memPoints     int64
	resultPoints  int64
	last          lsm.ScanStats
	lat           *metrics.Histogram // seconds
}

// readAmplification returns the cumulative points-read / points-returned
// ratio across every scan served for the series.
func (rs *seriesReadStats) readAmplification() float64 {
	if rs.resultPoints == 0 {
		return 0
	}
	return float64(rs.tablePoints+rs.memPoints) / float64(rs.resultPoints)
}

// observeRead folds one scan/aggregate's cost into the per-series read
// accounting.
func (s *Server) observeRead(name string, st lsm.ScanStats, d time.Duration) {
	if st.RollupBuckets > 0 {
		s.rollupBuckets.Add(int64(st.RollupBuckets))
		s.rollupServedAggs.Add(1)
	}
	s.readMu.Lock()
	defer s.readMu.Unlock()
	rs := s.reads[name]
	if rs == nil {
		// 1ms bins over [0, 1s); slower scans land in the over-range tally
		// and quantiles saturate at 1s.
		rs = &seriesReadStats{lat: metrics.NewHistogram(0, 1, 1000)}
		s.reads[name] = rs
	}
	rs.scans++
	rs.tablesTouched += int64(st.TablesTouched)
	rs.tablePoints += int64(st.TablePoints)
	rs.memPoints += int64(st.MemPoints)
	rs.resultPoints += int64(st.ResultPoints)
	rs.last = st
	rs.lat.Observe(d.Seconds())
}

// New builds a server over db. Call Start (or mount Handler yourself),
// then Close to drain.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
		if cfg.Shards > 16 {
			cfg.Shards = 16
		}
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 128
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixMilli() }
	}
	s := &Server{
		cfg:      cfg,
		db:       cfg.DB,
		pool:     newIngestPool(cfg.DB, cfg.Shards, cfg.QueueLen),
		writeLat: metrics.NewHistogram(0, 10, 100), // 100ms buckets over [0,10s)
		reads:    make(map[string]*seriesReadStats),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /write", s.handleWrite)
	mux.HandleFunc("GET /scan", s.handleScan)
	mux.HandleFunc("GET /aggregate", s.handleAggregate)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /series", s.handleSeries)
	mux.HandleFunc("POST /series", s.handleCreateSeries)
	mux.HandleFunc("GET /series/{series}/stats", s.handleSeriesStats)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// Handler returns the route table (for tests or embedding behind another
// mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves in a
// background goroutine. The bound address is returned (useful with port
// 0).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Close shuts down gracefully: stop accepting connections, wait for
// in-flight requests (bounded by ctx), drain the ingest queues, flush
// every series, and — when Config.CloseDB is set — close the DB.
func (s *Server) Close(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var firstErr error
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			firstErr = err
		}
	}
	s.pool.close()
	if err := s.db.FlushAll(); err != nil && firstErr == nil {
		firstErr = err
	}
	if s.cfg.CloseDB {
		if err := s.db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---- write path ----

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.writeRequests.Add(1)

	// Depth-based compaction backpressure: when the shared scheduler's
	// aggregate L0 backlog crosses its threshold, shed the write before
	// even parsing the body. Accepting it would only push the backlog
	// toward the per-engine queue limits, where ingest shards block and
	// every series' latency collapses at once; a 429 here keeps the
	// slowdown explicit and client-visible instead.
	if pool := s.db.Compactions(); pool != nil && pool.Overloaded() {
		s.writesRejected.Add(1)
		s.writesThrottled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		s.writeJSON(w, http.StatusTooManyRequests, api.WriteResponse{
			Error: "compaction backlog: retry later",
		})
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	defer body.Close()

	ct := r.Header.Get("Content-Type")
	var (
		entries []entry
		err     error
	)
	if strings.HasPrefix(ct, "application/json") {
		entries, err = s.parseJSONBody(body)
	} else {
		entries, err = s.parseLineBody(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBody)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(entries) == 0 {
		s.writeJSON(w, http.StatusOK, api.WriteResponse{})
		return
	}

	accepted, rejected, req := s.pool.enqueue(entries)
	var applyErr error
	if req != nil {
		applyErr = req.wait()
	}
	s.latMu.Lock()
	s.writeLat.Observe(time.Since(start).Seconds())
	s.latMu.Unlock()

	switch {
	case applyErr != nil:
		// Accepted points that failed to apply are an engine-side error,
		// not backpressure.
		s.writeJSON(w, http.StatusInternalServerError, api.WriteResponse{
			Accepted: accepted, Rejected: rejected, Error: applyErr.Error(),
		})
	case rejected > 0:
		s.writesRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		s.writeJSON(w, http.StatusTooManyRequests, api.WriteResponse{
			Accepted: accepted, Rejected: rejected, Error: "ingest queue full",
		})
	default:
		s.writeJSON(w, http.StatusOK, api.WriteResponse{Accepted: accepted})
	}
}

func (s *Server) parseLineBody(body io.Reader) ([]entry, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	var out []entry
	now := s.cfg.Now()
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := api.ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		out = append(out, s.toEntry(p, now))
	}
	return out, nil
}

func (s *Server) parseJSONBody(body io.Reader) ([]entry, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	var req api.WriteRequest
	if err := json.Unmarshal(data, &req); err != nil {
		// Bare array form.
		var pts []api.Point
		if aerr := json.Unmarshal(data, &pts); aerr != nil {
			return nil, fmt.Errorf("bad JSON body: %v", err)
		}
		req.Points = pts
	}
	out := make([]entry, 0, len(req.Points))
	now := s.cfg.Now()
	for i, p := range req.Points {
		if p.Series == "" {
			return nil, fmt.Errorf("point %d: missing series", i)
		}
		out = append(out, s.toEntry(p, now))
	}
	return out, nil
}

func (s *Server) toEntry(p api.Point, now int64) entry {
	ta := p.TA
	if p.AssignTA {
		ta = now
	}
	return entry{series: p.Series, pt: series.Point{TG: p.TG, TA: ta, V: p.V}}
}

// ---- read path ----

// scanStatsJSON converts engine scan accounting to its wire form.
func scanStatsJSON(st lsm.ScanStats) api.ScanStatsJSON {
	return api.ScanStatsJSON{
		TablesTouched:         st.TablesTouched,
		TablePoints:           st.TablePoints,
		MemPoints:             st.MemPoints,
		ResultPoints:          st.ResultPoints,
		ReadAmplification:     st.ReadAmplification(),
		BlocksRead:            st.BlocksRead,
		BlocksCached:          st.BlocksCached,
		TablesTouchedPerLevel: st.LevelTablesTouched,
		RollupBucketsUsed:     st.RollupBuckets,
		RawPointsScanned:      st.ResultPoints,
	}
}

// bucketJSON converts one downsampled window to its wire form.
func bucketJSON(b query.Bucket) api.BucketJSON {
	return api.BucketJSON{
		Start: b.Start, Count: b.Count, Min: b.Min, Max: b.Max,
		Mean: b.Mean(), Sum: b.Sum, First: b.First, Last: b.Last,
	}
}

// handleScan encodes the response straight off a snapshot merge iterator:
// the point set is encoded as it is merged, so the server never
// materializes a []series.Point for the range, and the engine lock is held
// only for the O(1) snapshot. The body is an api.ScanResponse object with
// "points" first and "count"/"stats" (only known at the end) trailing —
// JSON object field order is insignificant to decoders.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	s.scanRequests.Add(1)
	name, lo, hi, ok := s.rangeParams(w, r)
	if !ok {
		return
	}
	start := time.Now()
	it, err := s.db.SeriesIterator(name, lo, hi)
	if err != nil {
		s.queryError(w, err)
		return
	}
	rb := newRespBuf(w, http.StatusOK)
	rb.str(`{"series":`)
	rb.json(name)
	rb.str(`,"points":[`)
	n := 0
	for it.Next() {
		if n > 0 {
			rb.str(",")
		}
		p := it.Point()
		rb.room()
		rb.b = api.AppendPoint(rb.b, p.TG, p.TA, p.V)
		n++
	}
	st := it.Stats()
	rb.str(`],"count":`)
	rb.b = strconv.AppendInt(rb.b, int64(n), 10)
	rb.str(`,"stats":`)
	rb.json(scanStatsJSON(st))
	if err := it.Err(); err != nil {
		// A prefix of the points may already be on the wire under a 200;
		// all we can do is mark the body as truncated.
		rb.str(`,"error":`)
		rb.json(err.Error())
	}
	rb.str("}\n")
	rb.finish()
	s.scannedPoints.Add(int64(n))
	s.observeRead(name, st, time.Since(start))
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	s.aggRequests.Add(1)
	name, lo, hi, ok := s.rangeParams(w, r)
	if !ok {
		return
	}
	width, err := strconv.ParseInt(r.URL.Query().Get("width"), 10, 64)
	if err != nil || width <= 0 {
		s.writeError(w, http.StatusBadRequest, "width must be a positive integer")
		return
	}
	start := time.Now()
	// Aggregate through the DB so uncontested table ranges are served from
	// compaction-time rollup buckets when the width is a multiple of the
	// configured rollup window; everything else folds raw off a snapshot.
	buckets, st, err := s.db.AggregateSeries(name, lo, hi, width)
	if err != nil {
		s.queryError(w, err)
		return
	}
	s.scannedPoints.Add(int64(st.ResultPoints))
	s.observeRead(name, st, time.Since(start))
	rb := newRespBuf(w, http.StatusOK)
	rb.str(`{"series":`)
	rb.json(name)
	rb.str(`,"width":`)
	rb.b = strconv.AppendInt(rb.b, width, 10)
	rb.str(`,"buckets":`)
	rb.buckets(buckets)
	rb.str(`,"stats":`)
	rb.json(scanStatsJSON(st))
	rb.str("}\n")
	rb.finish()
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if expr := r.URL.Query().Get("match"); expr != "" {
		ms, err := index.ParseMatchers(expr)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ids := s.db.Match(ms)
		resp := api.SeriesResponse{Series: ids, Labels: make(map[string]map[string]string, len(ids))}
		if resp.Series == nil {
			resp.Series = []string{}
		}
		for _, id := range ids {
			if ls, ok := s.db.LabelsOf(id); ok {
				resp.Labels[id] = ls.Map()
			}
		}
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	names := s.db.Series()
	if names == nil {
		names = []string{}
	}
	s.writeJSON(w, http.StatusOK, api.SeriesResponse{Series: names})
}

// handleCreateSeries registers a series explicitly: by name, or by label
// set (the response carries the canonical ID writes must address).
func (s *Server) handleCreateSeries(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	defer body.Close()
	var req api.CreateSeriesRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	switch {
	case req.Name != "" && len(req.Labels) > 0:
		s.writeError(w, http.StatusBadRequest, "name and labels are mutually exclusive")
	case req.Name != "":
		if err := s.db.CreateSeries(req.Name); err != nil {
			s.createError(w, err)
			return
		}
		resp := api.CreateSeriesResponse{ID: req.Name}
		if ls, ok := s.db.LabelsOf(req.Name); ok {
			resp.Labels = ls.Map()
		}
		s.writeJSON(w, http.StatusOK, resp)
	case len(req.Labels) > 0:
		ls, err := series.NewLabels(req.Labels)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		id, err := s.db.CreateSeriesLabeled(ls)
		if err != nil {
			s.createError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, api.CreateSeriesResponse{ID: id, Labels: ls.Map()})
	default:
		s.writeError(w, http.StatusBadRequest, "one of name or labels is required")
	}
}

func (s *Server) createError(w http.ResponseWriter, err error) {
	if errors.Is(err, tsdb.ErrClosed) {
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, "%v", err)
}

// handleQuery resolves a matcher expression against the tag index and
// fans the per-series reads across the DB's query worker pool. The
// response streams: each matched series' row is encoded to the wire as
// the result array is walked, so a wide fan-out never materializes one
// giant response value; the query-wide stats (series matched/queried,
// tables touched, fan-out width) trail the results.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queryRequests.Add(1)
	q := r.URL.Query()
	expr := q.Get("match")
	if expr == "" {
		s.writeError(w, http.StatusBadRequest, "missing match parameter")
		return
	}
	ms, err := index.ParseMatchers(expr)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := tsdb.QueryOptions{Lo: int64(math.MinInt64 / 2), Hi: int64(math.MaxInt64 / 2)}
	intParam := func(key string, dst *int64, min int64) bool {
		v := q.Get(key)
		if v == "" {
			return true
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < min {
			s.writeError(w, http.StatusBadRequest, "bad %s %q", key, v)
			return false
		}
		*dst = n
		return true
	}
	var workers, limit int64
	if !intParam("lo", &opts.Lo, math.MinInt64/2) || !intParam("hi", &opts.Hi, math.MinInt64/2) ||
		!intParam("width", &opts.BucketWidth, 1) || !intParam("workers", &workers, 1) ||
		!intParam("limit", &limit, 1) {
		return
	}
	opts.Workers, opts.Limit = int(workers), int(limit)

	results, qs, err := s.db.QueryMatch(ms, opts)
	if err != nil {
		s.queryError(w, err)
		return
	}
	rb := newRespBuf(w, http.StatusOK)
	rb.str(`{"matchers":`)
	rb.json(index.FormatMatchers(ms))
	rb.str(`,"results":[`)
	for i := range results {
		if i > 0 {
			rb.str(",")
		}
		rb.queryRow(&results[i])
	}
	rb.str(`],"stats":`)
	rb.json(api.QueryStatsJSON{
		SeriesMatched:  qs.SeriesMatched,
		SeriesQueried:  qs.SeriesQueried,
		SeriesFailed:   qs.SeriesFailed,
		TablesTouched:  qs.TablesTouched,
		BlocksRead:     qs.BlocksRead,
		PointsReturned: qs.PointsReturned,
		Workers:        qs.Workers,
	})
	rb.str("}\n")
	rb.finish()
	s.scannedPoints.Add(int64(qs.PointsReturned))
}

// queryRow appends one fan-out result as its api.QuerySeriesJSON wire row:
// a failed series carries its error and no data, an aggregate query its
// buckets, a raw one its points; an empty list is left out (omitempty).
func (rb *respBuf) queryRow(res *tsdb.SeriesResult) {
	rb.str(`{"id":`)
	rb.json(res.ID)
	if len(res.Labels) > 0 {
		rb.str(`,"labels":`)
		rb.json(res.Labels.Map())
	}
	n := 0
	switch {
	case res.Err != nil:
	case len(res.Buckets) > 0:
		n = len(res.Buckets)
		rb.str(`,"buckets":`)
		rb.buckets(res.Buckets)
	case len(res.Points) > 0:
		n = len(res.Points)
		rb.str(`,"points":[`)
		for i, p := range res.Points {
			if i > 0 {
				rb.str(",")
			}
			rb.room()
			rb.b = api.AppendPoint(rb.b, p.TG, p.TA, p.V)
		}
		rb.str("]")
	}
	rb.str(`,"count":`)
	rb.b = strconv.AppendInt(rb.b, int64(n), 10)
	rb.str(`,"stats":`)
	rb.json(scanStatsJSON(res.Stats))
	if res.Err != nil {
		rb.str(`,"error":`)
		rb.json(res.Err.Error())
	}
	rb.str("}")
}

// buckets appends bs as a JSON array of api.BucketJSON rows.
func (rb *respBuf) buckets(bs []query.Bucket) {
	rb.str("[")
	for i, b := range bs {
		if i > 0 {
			rb.str(",")
		}
		rb.room()
		rb.b = api.AppendBucket(rb.b, bucketJSON(b))
	}
	rb.str("]")
}

// seriesStatsJSON converts one series' engine counters to their wire form.
func seriesStatsJSON(st tsdb.SeriesStats) api.SeriesStatsJSON {
	e := api.SeriesStatsJSON{
		Name:               st.Name,
		Policy:             st.Policy.String(),
		SeqCap:             st.SeqCap,
		PointsIngested:     st.Stats.PointsIngested,
		PointsWritten:      st.Stats.PointsWritten,
		PointsRewritten:    st.Stats.PointsRewritten,
		Flushes:            st.Stats.Flushes,
		Compactions:        st.Stats.Compactions,
		InOrderPoints:      st.Stats.InOrderPoints,
		OutOfOrderPoints:   st.Stats.OutOfOrderPoints,
		WriteAmplification: st.Stats.WriteAmplification(),
		Resident:           st.Resident,
	}
	if st.Decision != nil {
		e.Decision = &api.DecisionJSON{
			Policy: st.Decision.Policy.String(),
			NSeq:   st.Decision.NSeq,
			Rc:     st.Decision.Rc,
			Rs:     st.Decision.Rs,
		}
	}
	for _, l := range st.Levels {
		e.Levels = append(e.Levels, api.LevelStatsJSON{
			Level:           l.Level,
			Tables:          l.Tables,
			Points:          l.Points,
			TargetPoints:    l.TargetPoints,
			Compactions:     l.Compactions,
			PointsIn:        l.PointsIn,
			PointsRewritten: l.PointsRewritten,
		})
	}
	return e
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.db.Stats()
	resp := api.StatsResponse{TotalWA: s.db.TotalWA(), Series: make([]api.SeriesStatsJSON, len(stats))}
	for i, st := range stats {
		resp.Series[i] = seriesStatsJSON(st)
	}
	if ws, ok := s.db.WALStats(); ok {
		wj := &api.WALStatsJSON{
			Shards:          ws.Shards,
			Commits:         ws.Commits,
			Records:         ws.Records,
			Points:          ws.Points,
			Checkpoints:     ws.Checkpoints,
			Segments:        ws.Segments,
			SegmentsRemoved: ws.SegmentsRemoved,
			PendingSeries:   ws.PendingSeries,
			PendingPoints:   ws.PendingPoints,
		}
		if gw := s.db.GroupWAL(); gw != nil {
			if batch := gw.BatchHist(); batch.Count > 0 {
				wj.BatchMeanPoints = batch.Sum / float64(batch.Count)
			}
			wj.CommitP99Secs = histQuantile(gw.CommitLatencyHist(), 0.99)
		}
		resp.WAL = wj
	}
	if as, ok := s.db.ArbiterStats(); ok {
		resp.Arbiter = &api.ArbiterStatsJSON{
			BudgetBytes:         as.BudgetBytes,
			MemtableBytes:       as.MemtableBytes,
			MemtableTargetBytes: as.MemtableTargetBytes,
			CacheTargetBytes:    as.CacheTargetBytes,
			WritePressure:       as.WritePressure,
			ReadPressure:        as.ReadPressure,
			ResidentSeries:      as.ResidentSeries,
			ColdSeries:          as.ColdSeries,
			Evictions:           as.Evictions,
			Rebalances:          as.Rebalances,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// histQuantile interpolates quantile q from a fixed-width histogram
// snapshot (upper-edge convention, like metrics.Histogram.Quantile).
func histQuantile(h groupwal.HistSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Edges) == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	var cum int64
	bw := 0.0
	if len(h.Edges) > 1 {
		bw = h.Edges[1] - h.Edges[0]
	}
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			return h.Edges[i] + bw
		}
	}
	return h.Edges[len(h.Edges)-1] + bw
}

// finiteOrNil boxes v for an omitempty wire field, dropping NaN/Inf —
// undefined statistics (e.g. a quantile of zero observations) are omitted
// from the response rather than misreported, and encoding/json cannot
// represent them anyway.
func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// handleSeriesStats serves /series/{series}/stats: the series' engine
// counters (same shape as its /stats entry) plus the server-side read-path
// accounting — cumulative ScanStats, the last scan's ScanStats, and scan
// latency quantiles from the per-series histogram.
func (s *Server) handleSeriesStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("series")
	var found *tsdb.SeriesStats
	for _, st := range s.db.Stats() {
		if st.Name == name {
			st := st
			found = &st
			break
		}
	}
	if found == nil {
		s.writeError(w, http.StatusNotFound, "no such series %q", name)
		return
	}
	resp := api.SeriesDetailResponse{SeriesStatsJSON: seriesStatsJSON(*found)}
	s.readMu.Lock()
	if rs := s.reads[name]; rs != nil {
		last := scanStatsJSON(rs.last)
		resp.Read = api.ReadStatsJSON{
			Scans:              rs.scans,
			TablesTouched:      rs.tablesTouched,
			TablePoints:        rs.tablePoints,
			MemPoints:          rs.memPoints,
			ResultPoints:       rs.resultPoints,
			ReadAmplification:  rs.readAmplification(),
			LatencyP50Seconds:  finiteOrNil(rs.lat.Quantile(0.5)),
			LatencyP99Seconds:  finiteOrNil(rs.lat.Quantile(0.99)),
			LatencyMeanSeconds: finiteOrNil(rs.lat.Mean()),
			LastScan:           &last,
		}
	}
	s.readMu.Unlock()
	if pool := s.db.Compactions(); pool != nil {
		if cs, ok := pool.SeriesStats(name); ok {
			resp.Compaction = &api.CompactionStatsJSON{
				Queued:       cs.Queued,
				Running:      cs.Running,
				Merges:       cs.Merges,
				Failed:       cs.Failed,
				WaitSeconds:  cs.WaitSeconds,
				MergeSeconds: cs.MergeSeconds,
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rec := s.db.RecoveryInfo()
	s.writeJSON(w, http.StatusOK, api.HealthResponse{
		Status: "ok",
		Recovery: api.RecoveryJSON{
			CatalogFound:        rec.CatalogFound,
			CatalogVersion:      rec.CatalogVersion,
			SeriesRecovered:     rec.SeriesRecovered,
			WALOnlySeries:       rec.WALOnlySeries,
			MigratedSeries:      rec.MigratedSeries,
			OrphanSeriesRemoved: rec.OrphanSeriesRemoved,
			WALPointsReplayed:   rec.WALPointsReplayed,
			TornWALs:            rec.TornWALs,
			OrphanTablesRemoved: rec.OrphanTablesRemoved,
		},
	})
}

// rangeParams parses series/lo/hi query parameters. lo and hi default to
// the full generation-time range.
func (s *Server) rangeParams(w http.ResponseWriter, r *http.Request) (name string, lo, hi int64, ok bool) {
	q := r.URL.Query()
	name = q.Get("series")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing series parameter")
		return "", 0, 0, false
	}
	lo, hi = int64(math.MinInt64/2), int64(math.MaxInt64/2)
	var err error
	if v := q.Get("lo"); v != "" {
		if lo, err = strconv.ParseInt(v, 10, 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad lo %q", v)
			return "", 0, 0, false
		}
	}
	if v := q.Get("hi"); v != "" {
		if hi, err = strconv.ParseInt(v, 10, 64); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad hi %q", v)
			return "", 0, 0, false
		}
	}
	return name, lo, hi, true
}

func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tsdb.ErrNoSeries):
		s.writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, tsdb.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// respBufSize is the capacity of the pooled response buffer. A body that
// fits is sent with Content-Length in one Write; a longer one streams
// through it, so a response costs O(buffer) memory however long the scan.
const respBufSize = 32 << 10

// respBuf builds one JSON response in a pooled buffer. Handlers append to
// b, calling room before each repeated row. Nothing reaches the wire before
// the buffer first fills, so until then an encoding failure can still be
// answered with a 500.
type respBuf struct {
	w      http.ResponseWriter
	b      []byte
	status int
	sent   bool  // header and a first part of the body are on the wire
	err    error // first encoding failure
}

func newRespBuf(w http.ResponseWriter, status int) respBuf {
	return respBuf{w: w, b: arena.GetBytes(respBufSize)[:0], status: status}
}

func (rb *respBuf) str(s string) { rb.b = append(rb.b, s...) }

// json appends v as encoding/json writes it. It serves the parts that occur
// once per response or per series (names, label sets, stats objects); the
// rows that repeat per point go through the api append encoders.
func (rb *respBuf) json(v any) {
	b, err := json.Marshal(v)
	if err != nil && rb.err == nil {
		rb.err = err
	}
	rb.b = append(rb.b, b...)
}

// room sends the buffer on when it has less than one row of space left.
func (rb *respBuf) room() {
	if cap(rb.b)-len(rb.b) < api.MaxRowLen {
		rb.send()
	}
}

func (rb *respBuf) send() {
	if !rb.sent {
		rb.sent = true
		rb.w.Header().Set("Content-Type", "application/json")
		rb.w.WriteHeader(rb.status)
	}
	rb.w.Write(rb.b) // a write error means the client has gone: nothing to report to
	rb.b = rb.b[:0]
}

// finish sends what is buffered, as the whole body with its Content-Length
// when nothing was sent before, and returns the buffer to the pool. A body
// that failed to encode becomes a 500 unless part of it is already out, in
// which case it stays cut short and no JSON decoder accepts it.
func (rb *respBuf) finish() {
	if !rb.sent {
		if rb.err != nil {
			rb.status, rb.b = http.StatusInternalServerError, rb.b[:0]
			rb.json(api.ErrorResponse{Error: "encode response: " + rb.err.Error()})
			rb.str("\n")
		}
		rb.w.Header().Set("Content-Length", strconv.Itoa(len(rb.b)))
	}
	rb.send()
	arena.PutBytes(rb.b)
	rb.b = nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	rb := newRespBuf(w, status)
	rb.json(v)
	rb.str("\n")
	rb.finish()
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
