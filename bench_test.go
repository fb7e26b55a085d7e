// Benchmarks regenerating each of the paper's tables and figures at a
// reduced scale (Config.Quick). Run the full-scale versions with
// cmd/lsmbench. One benchmark per experiment, plus micro-benchmarks of the
// hot paths (ingestion under both policies, the ζ model, Algorithm 1).
package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/lsm"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/tsdb"
	"repro/internal/workload"
)

// benchConfig is a small but non-trivial configuration.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.004, Seed: 1, Quick: true}
}

// runExperiment is the shared driver for per-figure benchmarks.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, benchConfig())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { runExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { runExperiment(b, "fig20") }

// BenchmarkIngestConventional measures raw write throughput under π_c
// (per-point cost including compaction work).
func BenchmarkIngestConventional(b *testing.B) {
	ps := workload.Synthetic(200_000, 50, dist.NewLognormal(4, 1.5), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := lsm.Open(lsm.Config{Policy: lsm.Conventional, MemBudget: 512})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.PutBatch(ps); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
	b.ReportMetric(float64(200_000*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkIngestSeparation measures raw write throughput under π_s.
func BenchmarkIngestSeparation(b *testing.B) {
	ps := workload.Synthetic(200_000, 50, dist.NewLognormal(4, 1.5), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := lsm.Open(lsm.Config{Policy: lsm.Separation, MemBudget: 512, SeqCapacity: 256})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.PutBatch(ps); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
	b.ReportMetric(float64(200_000*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkZeta measures one ζ(512) model evaluation (the analyzer's
// dominant cost).
func BenchmarkZeta(b *testing.B) {
	d := dist.NewLognormal(4, 1.5)
	for i := 0; i < b.N; i++ {
		core.Zeta(d, 50, 512)
	}
}

// BenchmarkTune measures one full Algorithm 1 run (coarse-to-fine search)
// at n = 128.
func BenchmarkTune(b *testing.B) {
	d := dist.NewLognormal(4, 1.5)
	for i := 0; i < b.N; i++ {
		core.Tune(d, 50, 128)
	}
}

// BenchmarkScan measures range scans against a loaded engine.
func BenchmarkScan(b *testing.B) {
	e, err := lsm.Open(lsm.Config{Policy: lsm.Conventional, MemBudget: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ps := workload.Synthetic(200_000, 50, dist.NewLognormal(4, 1.5), 1)
	if err := e.PutBatch(ps); err != nil {
		b.Fatal(err)
	}
	span := int64(200_000 * 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (int64(i) * 7919 * 50) % (span - 100_000)
		pts, _, _ := e.Scan(lo, lo+100_000)
		if len(pts) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkScanEncode measures serving one 500-point scan: "rows" is the
// per-point wire encoding alone, "handler" the whole /scan request through
// the server's route table (parse, snapshot, merge, encode, buffer).
func BenchmarkScanEncode(b *testing.B) {
	const n = 500
	db, err := tsdb.Open(tsdb.Config{
		Engine:     lsm.Config{Policy: lsm.Conventional, MemBudget: 512},
		AutoCreate: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]series.Point, 4*n)
	for i := range pts {
		pts[i] = series.Point{TG: int64(i) * 50, TA: int64(i)*50 + 7, V: 20 + float64(i%97)/8}
	}
	if err := db.PutBatch("s", pts); err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, CloseDB: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close(context.Background())

	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, p := range pts[:n] {
				buf = api.AppendPoint(buf, p.TG, p.TA, p.V)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	})
	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		path := fmt.Sprintf("/scan?series=s&lo=%d&hi=%d", pts[3*n].TG, pts[4*n-1].TG)
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	})
}

// BenchmarkTSDBIngest measures the multi-series layer's per-point overhead
// across 16 series.
func BenchmarkTSDBIngest(b *testing.B) {
	db, err := tsdb.Open(tsdb.Config{
		Engine:     lsm.Config{Policy: lsm.Conventional, MemBudget: 512},
		AutoCreate: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	ps := workload.Synthetic(1<<16, 50, dist.NewLognormal(4, 1.5), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		if err := db.Put(names[i%len(names)], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregate measures downsampling a loaded range into buckets.
func BenchmarkAggregate(b *testing.B) {
	e, err := lsm.Open(lsm.Config{Policy: lsm.Conventional, MemBudget: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ps := workload.Synthetic(100_000, 50, dist.NewLognormal(4, 1.5), 1)
	if err := e.PutBatch(ps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets, _, err := query.Aggregate(e, 0, 100_000*50, 10_000)
		if err != nil || len(buckets) == 0 {
			b.Fatalf("aggregate: %d buckets, %v", len(buckets), err)
		}
	}
}
