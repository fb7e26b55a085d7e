package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tsdb"
)

// loopbackLayers turns lsmd's own counters across a measured phase, and the
// client's per-kind timing of it, into per-layer metrics (sources S and C).
func loopbackLayers(lb *loopback, m map[string]float64) {
	p := lb.phase
	d := func(name string) float64 { return lb.after.prom[name] - lb.before.prom[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["read_p95_ms"], _ = quantile(p.reads, 0.95)
	m["write_p95_ms"], _ = quantile(p.writes, 0.95)
	m["client.write_p99_ms"], _ = quantile(p.writes, 0.99)
	m["client.read_p99_ms"], _ = quantile(p.reads, 0.99)
	if n := len(p.writes); n > 0 {
		m["client.write_max_ms"] = p.writes[n-1]
	}
	m["client.scan_recent_p50_ms"], _ = quantile(p.lat[opScanRecent], 0.5)
	m["client.scan_hist_p50_ms"], _ = quantile(p.lat[opScanHist], 0.5)
	m["client.agg_rollup_p50_ms"], _ = quantile(p.lat[opAggRollup], 0.5)
	m["client.throttled_429"] = float64(lb.throttled)
	m["gen.cpu_frac"] = lb.genCPU / p.elapsed.Seconds() / numClients
	m["gen.late_p95_ms"], _ = quantile(p.late, 0.95)

	m["server.write_rejected"] = d("lsmd_write_requests_rejected_total")
	m["server.write_throttled"] = d("lsmd_write_requests_throttled_total")

	var piS int
	var ingested, rewritten, flushes, compactions, ooo float64
	before := make(map[string]int)
	for i, s := range lb.before.stats.Series {
		before[s.Name] = i
	}
	for _, s := range lb.after.stats.Series {
		if s.Policy == "pi_s" {
			piS++
		}
		b := lb.before.stats.Series[before[s.Name]]
		ingested += float64(s.PointsIngested - b.PointsIngested)
		rewritten += float64(s.PointsRewritten - b.PointsRewritten)
		flushes += float64(s.Flushes - b.Flushes)
		compactions += float64(s.Compactions - b.Compactions)
		ooo += float64(s.OutOfOrderPoints - b.OutOfOrderPoints)
	}
	m["analyzer.pi_s_frac"] = ratio(float64(piS), float64(len(lb.after.stats.Series)))
	m["lsm.flushes_per_kpoint"] = ratio(1000*flushes, ingested)
	m["lsm.compactions_per_kpoint"] = ratio(1000*compactions, ingested)
	m["lsm.points_rewritten_per_point"] = ratio(rewritten, ingested)
	m["lsm.out_of_order_frac"] = ratio(ooo, ingested)

	ra, rb := lb.after.reads, lb.before.reads
	m["lsm.read_amp"] = ratio(float64(ra.TablePoints+ra.MemPoints-rb.TablePoints-rb.MemPoints), float64(ra.ResultPoints-rb.ResultPoints))
	m["lsm.tables_touched_per_scan"] = ratio(float64(ra.TablesTouched-rb.TablesTouched), float64(ra.Scans-rb.Scans))
	m["scheduler.merge_s"] = d("lsmd_compaction_merge_seconds_sum")
	m["scheduler.wait_s"] = d("lsmd_compaction_wait_seconds_sum")

	if wa, wb := lb.after.stats.WAL, lb.before.stats.WAL; wa != nil && wb != nil {
		m["groupwal.fsyncs_per_point"] = ratio(float64(wa.Commits-wb.Commits), float64(wa.Points-wb.Points))
		m["groupwal.batch_mean_points"] = ratio(float64(wa.Points-wb.Points), float64(wa.Commits-wb.Commits))
	}
	m["groupwal.commit_p99_ms"] = 1000 * promQuantile(lb.before.prom, lb.after.prom, "lsmd_wal_group_commit_seconds", 0.99)

	hits, misses := d("lsmd_block_cache_hits_total"), d("lsmd_block_cache_misses_total")
	m["cache.hit_rate"] = ratio(hits, hits+misses)
	m["cache.evictions"] = d("lsmd_block_cache_evictions_total")

	m["query.rollup_buckets_per_agg"] = ratio(float64(p.rollupBuckets), float64(p.aggs))
	m["query.raw_points_per_agg"] = ratio(float64(p.rawPoints), float64(p.aggs))
	m["query.fanout_series_per_query"] = ratio(d("lsmd_query_fanout_series_total"), d("lsmd_query_fanout_queries_total"))
}

// promQuantile returns quantile q of a Prometheus histogram's growth between
// two scrapes (upper bucket edge, as the server's own quantiles do).
func promQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				continue // +Inf
			}
			bs = append(bs, bucket{le, v - before[k]})
		}
	}
	total := after[name+"_count"] - before[name+"_count"]
	if total == 0 {
		return 0
	}
	// Buckets are cumulative, so an edge the scrape omitted as empty is
	// covered by the next one.
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		if b.n > q*total {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}

// runTraced is the separate traced run: a shortened loopback phase for the
// counters lsmd keeps itself, then the same op schedule driven in process
// with one client — through the server's handler (T1) and as direct tsdb
// calls (T2) over a traced storage backend — then the single-layer probes
// (T3). The spans are written to bench/out/trace-<workload>.json.
func runTraced(e *env, w workloadDef, seed int64, dur time.Duration) (*result, error) {
	res := &result{workload: w.name, seed: seed, metrics: make(map[string]float64), samples: make(map[string]int)}
	m := res.metrics
	for _, def := range perLayer {
		m[def.name] = 0
	}

	// Loopback: two clients for the counters, then one for the front door.
	ld, d, _, err := setUp(e, w, seed, 1)
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
	lb, err := runLoopback(e, w, d, ld, gens, dur/4)
	if err != nil {
		return nil, err
	}
	loopbackLayers(lb, m)
	res.attempted, res.failed = lb.phase.attempted, lb.phase.failed
	res.hash = gensHash(gens)

	one := newHTTPTarget(d.base)
	front := merge(runPhase(w, gens[:1], []target{one}, dur/8))
	one.close()
	res.attempted += front.attempted
	res.failed += front.failed
	m["frontdoor.loopback_write_ms"] = mean(front.writes)
	m["frontdoor.loopback_read_ms"] = mean(front.reads)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.waitDrained(ctx); err != nil {
		return nil, err
	}
	bad, err := auditScan(d, ld.series)
	if err != nil {
		return nil, err
	}
	res.failed += bad
	res.attempted += len(ld.series)
	err = d.stop()
	d = nil
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	if err := tracedInProcess(e, w, seed, dur, tr, res); err != nil {
		return nil, err
	}
	if err := layerProbes(e, w, seed, m); err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	return res, tr.write(filepath.Join(e.root, "bench", "out", "trace-"+w.name+".json"))
}

// tracedInProcess runs legs T1 and T2 and the read-path probes on one store
// opened in process over the traced backend, and adds what they measured to
// res.
func tracedInProcess(e *env, w workloadDef, seed int64, dur time.Duration, tr *tracer, res *result) error {
	m := res.metrics
	ip, err := load(e, w, seed, "trace", func(b storage.Backend) storage.Backend { return &tracedBackend{inner: b, t: tr} })
	if err != nil {
		return err
	}
	defer discard(ip.dir)
	m["tsdb.preload_points_per_s"] = float64(numSeries*preloadPerSeries) / ip.preloadS
	disk, err := storage.NewDiskBackend(ip.dir)
	if err != nil {
		return err
	}
	openStart := time.Now()
	db, err := tsdb.Open(dbConfig(&tracedBackend{inner: disk, t: tr}, true))
	if err != nil {
		return err
	}
	m["tsdb.open_s"] = time.Since(openStart).Seconds()
	srv, err := server.New(server.Config{DB: db, CloseDB: true})
	if err != nil {
		db.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer srv.Close(ctx) // a second Close is a no-op

	g := newClientGen(w, seed, 0, ip.series)
	handler := &handlerTarget{h: srv.Handler(), tr: tr}
	direct := &dbTarget{db: db, tr: tr}
	leg := func(t target, traced bool) (*phaseStats, spanStats) {
		tr.on.Store(traced)
		from := tr.next()
		p := merge(runPhase(w, []*clientGen{g}, []target{t}, dur/8))
		tr.on.Store(false)
		to := tr.next()
		res.attempted += p.attempted
		res.failed += p.failed
		if p.firstErr != nil && len(res.notes) == 0 {
			res.notes = append(res.notes, "first failed op: "+p.firstErr.Error())
		}
		return p, tr.summarize(from, to)
	}
	leg(handler, false) // warm-up
	plain, _ := leg(handler, false)
	t1, s1 := leg(handler, true)
	t2, s2 := leg(direct, true)

	m["frontdoor.handler_write_ms"] = mean(plain.writes)
	m["frontdoor.handler_read_ms"] = mean(plain.reads)
	m["frontdoor.tsdb_write_ms"] = mean(t2.writes)
	m["frontdoor.tsdb_read_ms"] = mean(t2.reads)
	perOp := func(p *phaseStats) float64 {
		return 1e6 * (mean(p.writes)*float64(len(p.writes)) + mean(p.reads)*float64(len(p.reads))) / float64(max(p.completed(), 1))
	}
	if base := perOp(plain); base > 0 {
		m["trace.overhead_frac"] = (perOp(t1) - base) / base
	}

	div := func(a int64, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["server.handle_ns_per_op"] = div(s1.layerNs["server.handle"], s1.layerCount["server.handle"])
	// The handler's own cost: what a request costs through it, less what
	// T1's mix of ops costs as the direct tsdb calls of T2.
	var tsdbSelf int64
	var tsdbOps int
	var sameMix float64
	for k, name := range map[opKind]string{opWrite: "tsdb.put_batch", opScanRecent: "tsdb.scan", opScanHist: "tsdb.scan", opAggRollup: "tsdb.query_match"} {
		sameMix += float64(len(t1.lat[k])) * div(s2.layerNs[name], s2.layerCount[name])
		if k != opScanHist {
			tsdbSelf += s2.layerSelf[name]
			tsdbOps += s2.layerCount[name]
		}
	}
	m["server.self_ns_per_op"] = m["server.handle_ns_per_op"] - sameMix/float64(max(t1.completed(), 1))
	m["tsdb.self_ns_per_op"] = div(tsdbSelf, tsdbOps)
	m["tsdb.put_ns_per_point"] = div(s2.layerNs["tsdb.put_batch"], s2.layerN["tsdb.put_batch"])
	m["tsdb.scan_ns_per_point"] = div(s2.layerNs["tsdb.scan"], s2.layerN["tsdb.scan"])

	wrotePoints := len(t1.writes) * w.writePoints
	m["storage.append_calls_per_kpoint"] = div(int64(1000*s1.storeCount["storage.append"]), wrotePoints)
	m["storage.write_bytes_per_point"] = div(int64(s1.storeBytes["storage.append"]+s1.storeBytes["storage.write"]), wrotePoints)
	m["storage.read_bytes_per_op"] = div(int64(s1.storeBytes["storage.read"]+s1.storeBytes["storage.range_read"]), len(t1.reads))
	m["storage.busy_frac"] = float64(s1.busyNs) / float64(t1.elapsed)

	// Read paths no op of this workload may take, probed on the same store.
	span := int64(aggRange)
	start := time.Now()
	for _, s := range ip.series {
		if _, _, err := db.AggregateSeries(s.id, genInterval, span, aggWidth); err != nil {
			return err
		}
	}
	m["tsdb.aggregate_ns_per_op"] = float64(time.Since(start)) / float64(len(ip.series))
	var matched, calls int
	var matchNs, queryNs time.Duration
	for h := 0; h < numHosts; h++ {
		ms := []index.Matcher{index.MustMatcher("host", index.OpEq, "h"+strconv.Itoa(h))}
		start = time.Now()
		for i := 0; i < 200; i++ {
			matched += len(db.Match(ms))
			calls++
		}
		matchNs += time.Since(start)
		start = time.Now()
		if _, _, err := db.QueryMatch(ms, tsdb.QueryOptions{Lo: genInterval, Hi: span, BucketWidth: aggWidth}); err != nil {
			return err
		}
		queryNs += time.Since(start)
	}
	m["index.match_ns_per_call"] = float64(matchNs) / float64(calls)
	m["index.series_per_match"] = float64(matched) / float64(calls)
	m["tsdb.query_match_ns_per_op"] = float64(queryNs) / numHosts
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("close traced store: %w", err)
	}
	return nil
}
