package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/encoding"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/server/api"
	"repro/internal/sstable"
	"repro/internal/storage"
	"repro/internal/wal/groupwal"
)

// probePoints is how many of the workload's own points each single-layer
// probe replays.
const probePoints = 25600 // a multiple of every write, table and block size

// perPoint times f and returns nanoseconds per n.
func perPoint(n int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / float64(max(n, 1))
}

// layerProbes (T3) replays the workload's points through one layer at a
// time, on one goroutine, timing each from outside its public functions.
// The engine probe runs on a memory backend with synchronous compaction,
// so its counts repeat exactly.
func layerProbes(e *env, w workloadDef, seed int64, m map[string]float64) error {
	s := newSeriesSet(seed)[0]
	preloadPoints(w, s)
	pts := s.src.take(probePoints) // arrival order, the workload's delays
	sorted := append([]series.Point(nil), pts...)
	series.SortByTG(sorted)

	// server: line-protocol parse and scan-row encode, as the handlers do.
	lines := make([]string, len(pts))
	for i, p := range pts {
		lines[i] = api.FormatLine(api.Point{Series: s.id, TG: p.TG, TA: p.TA, V: p.V})
	}
	var perr error
	m["server.parse_ns_per_point"] = perPoint(len(lines), func() {
		for _, l := range lines {
			if _, err := api.ParseLine(strings.TrimSpace(l)); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return perr
	}
	m["server.encode_ns_per_point"] = perPoint(len(sorted), func() {
		for _, p := range sorted {
			json.Marshal(api.PointJSON{TG: p.TG, TA: p.TA, V: p.V})
		}
	})

	// analyzer: delay profiling per point, Algorithm 1 per call.
	col := analyzer.NewCollector(4096, seed)
	m["analyzer.observe_ns_per_point"] = perPoint(len(pts), func() {
		for _, p := range pts {
			col.Observe(p)
		}
	})
	// One call: on the backfill delays Algorithm 1 takes 10-20 s.
	m["analyzer.recommend_ns_per_call"] = perPoint(1, func() { analyzer.Recommend(col, memBudget) })

	// groupwal: durable batch appends on the repository's disk.
	dir, err := os.MkdirTemp(e.work, "data-"+w.name+"-wal-")
	if err != nil {
		return err
	}
	defer discard(dir)
	disk, err := storage.NewDiskBackend(dir)
	if err != nil {
		return err
	}
	walTrace := newTracer()
	walTrace.on.Store(true)
	gw, err := groupwal.Open(groupwal.Config{Backend: &tracedBackend{inner: disk, t: walTrace}})
	if err != nil {
		return err
	}
	sl := gw.SeriesLog(s.id)
	walPts := pts[:min(len(pts), 100*w.writePoints)]
	var werr error
	m["groupwal.append_ns_per_point"] = perPoint(len(walPts), func() {
		for ps := walPts; len(ps) > 0 && werr == nil; ps = ps[w.writePoints:] {
			werr = sl.AppendBatch(ps[:w.writePoints])
		}
	})
	gw.Close()
	if werr != nil {
		return werr
	}
	ws := walTrace.summarize(rootSpan+1, walTrace.next())
	m["groupwal.bytes_per_point"] = float64(ws.storeBytes["storage.append"]) / float64(len(walPts))

	// memtable: inserts at the store's budget, then window reads.
	mt := memtable.New(seed)
	m["memtable.put_ns_per_point"] = perPoint(len(pts), func() {
		for i, p := range pts {
			if i%memBudget == 0 {
				mt.Reset()
			}
			mt.Put(p)
		}
	})
	var dst []series.Point
	ranged := 0
	m["memtable.range_ns_per_point"] = perPoint(1, func() {
		for i := 0; i < 2000; i++ {
			dst = mt.AppendRange(dst[:0], mt.MinTG(), mt.MaxTG())
			ranged += len(dst)
		}
	}) / float64(max(ranged, 1))

	// lsm: the engine alone, against the paper's model.
	eng, err := lsm.Open(lsm.Config{
		Policy: lsm.Conventional, MemBudget: memBudget, RollupWindow: rollupWindow,
		Backend: storage.NewMemBackend(), Seed: seed,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	var lerr error
	m["lsm.put_ns_per_point"] = perPoint(len(pts), func() {
		for ps := pts; len(ps) > 0 && lerr == nil; ps = ps[w.writePoints:] {
			lerr = eng.PutBatch(ps[:w.writePoints])
		}
	})
	if lerr != nil {
		return lerr
	}
	if err := eng.FlushAll(); err != nil {
		return err
	}
	predicted := core.WAConventional(dist.NewLognormal(w.delayMu, w.delaySigma), genInterval, memBudget)
	m["lsm.model_wa_ratio"] = eng.Stats().WriteAmplification() / predicted

	// query: bucket folding off an engine snapshot, raw and over rollups.
	lo, hi := sorted[0].TG, sorted[len(sorted)-1].TG
	folded := 0
	var qerr error
	m["query.aggregate_ns_per_point"] = perPoint(1, func() {
		for i := 0; i < 20 && qerr == nil; i++ {
			var bks []query.Bucket
			bks, _, qerr = query.AggregateSnapshot(eng.Snapshot(), lo, hi, aggWidth)
			for _, b := range bks {
				folded += int(b.Count)
			}
		}
	}) / float64(max(folded, 1))
	if qerr != nil {
		return qerr
	}

	// sstable and encoding: build, encode and decode tables and columns
	// of the engine's own sizes.
	var tables []*sstable.Table
	var images [][]byte
	var bytes int
	var serr error
	m["sstable.build_encode_ns_per_point"] = perPoint(len(sorted), func() {
		for i := 0; i+lsm.DefaultSSTablePoints <= len(sorted) && serr == nil; i += lsm.DefaultSSTablePoints {
			var t *sstable.Table
			t, serr = sstable.Build(uint64(i), sorted[i:i+lsm.DefaultSSTablePoints])
			if serr == nil {
				tables = append(tables, t)
				images = append(images, t.Encode(sstable.DefaultBlockPoints))
			}
		}
	})
	if serr != nil {
		return serr
	}
	for _, img := range images {
		bytes += len(img)
	}
	m["sstable.bytes_per_point"] = float64(bytes) / float64(len(tables)*lsm.DefaultSSTablePoints)
	m["sstable.decode_ns_per_point"] = perPoint(len(sorted), func() {
		for _, img := range images {
			if _, err := sstable.Decode(img); err != nil {
				serr = err
			}
		}
	})
	if serr != nil {
		return serr
	}
	m["sstable.rollup_build_ns_per_point"] = perPoint(len(sorted), func() {
		for _, t := range tables {
			sstable.BuildRollup(t.Points(), rollupWindow)
		}
	})

	tgs := make([]int64, len(sorted))
	vals := make([]float64, len(sorted))
	for i, p := range sorted {
		tgs[i], vals[i] = p.TG, p.V
	}
	const block = sstable.DefaultBlockPoints
	var deltas, gorilla [][]byte
	m["encoding.delta_encode_ns_per_point"] = perPoint(len(tgs), func() {
		for i := 0; i+block <= len(tgs); i += block {
			deltas = append(deltas, encoding.EncodeDeltas(nil, tgs[i:i+block]))
		}
	})
	m["encoding.gorilla_encode_ns_per_point"] = perPoint(len(vals), func() {
		for i := 0; i+block <= len(vals); i += block {
			gorilla = append(gorilla, encoding.EncodeGorilla(nil, vals[i:i+block]))
		}
	})
	tgBuf, valBuf := make([]int64, block), make([]float64, block)
	var eerr error
	m["encoding.delta_decode_ns_per_point"] = perPoint(len(tgs), func() {
		for _, b := range deltas {
			if _, err := encoding.DecodeDeltasBuf(tgBuf, b); err != nil {
				eerr = err
			}
		}
	})
	m["encoding.gorilla_decode_ns_per_point"] = perPoint(len(vals), func() {
		for _, b := range gorilla {
			if _, err := encoding.DecodeGorillaBuf(valBuf, b); err != nil {
				eerr = err
			}
		}
	})
	return eerr
}
