package server

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/series"
	"repro/internal/tsdb"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current handlers")

// goldenValues covers every branch of encoding/json's float rule ('f'
// between 1e-6 and 1e21, 'e' outside, the e-09 → e-9 clean-up, -0) next
// to ordinary sensor readings.
var goldenValues = []float64{
	21.5, -3.25, 0, math.Copysign(0, -1), 1e-6, 1e-7, -2.5e-9, 1e20, 1e21, -1e21,
	123456789.125, 0.1, 1.0 / 3, 1.5e300, math.SmallestNonzeroFloat64, 100,
}

// goldenDB is the fixed seeded store the wire-parity goldens are served
// from: two labelled series and one named one, values cycling through
// goldenValues, one late batch so a range spans tables and memtable.
func goldenDB(t *testing.T) *tsdb.DB {
	t.Helper()
	db := testDB(t)
	ids := []string{"root.plain"}
	for _, dev := range []string{"d0", "d1"} {
		ls, err := series.NewLabels(map[string]string{"region": "eu", "device": dev, "note": `<a&b> "q"`})
		if err != nil {
			t.Fatal(err)
		}
		id, err := db.CreateSeriesLabeled(ls)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for k, id := range ids {
		pts := make([]series.Point, 0, 240)
		for i := 0; i < 200; i++ {
			tg := int64(i*10 - 500)
			pts = append(pts, series.Point{TG: tg, TA: tg + int64(k), V: goldenValues[(i+k)%len(goldenValues)]})
		}
		for i := 0; i < 40; i++ { // out-of-order tail, overwriting some points
			tg := int64(i*30 - 400)
			pts = append(pts, series.Point{TG: tg, TA: 5000 + int64(i), V: goldenValues[(i*3+k)%len(goldenValues)] / 2})
		}
		if err := db.PutBatch(id, pts); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestGoldenWireParity pins the /scan, /aggregate and /query bodies byte
// for byte. The goldens were written by the encoding/json handlers this
// package had before the append encoders, so a difference is a wire
// change, whatever a JSON decoder would make of it.
func TestGoldenWireParity(t *testing.T) {
	db := goldenDB(t)
	srv, err := New(Config{DB: db, CloseDB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	cases := map[string]string{
		"scan_all":        "/scan?series=root.plain",
		"scan_range":      "/scan?series=root.plain&lo=-100&hi=300",
		"scan_empty":      "/scan?series=root.plain&lo=100000&hi=200000",
		"scan_missing":    "/scan?series=nope",
		"aggregate":       "/aggregate?series=root.plain&width=250",
		"aggregate_range": "/aggregate?series=root.plain&lo=0&hi=999&width=100",
		"aggregate_empty": "/aggregate?series=root.plain&lo=100000&hi=200000&width=10",
		"query_raw":       "/query?match=region%3Deu&lo=-50&hi=200&workers=2",
		"query_buckets":   "/query?match=region%3Deu&width=500&workers=2",
		"query_limit":     "/query?match=device%3D~d.&lo=0&hi=0&workers=1&limit=1",
		"query_no_points": "/query?match=region%3Deu&lo=100000&hi=200000&workers=2",
		"query_no_series": "/query?match=region%3Dus&workers=2",
		"query_named":     "/query?match=__name__%3Droot.plain&lo=0&hi=50&workers=2",
	}
	for name, path := range cases {
		got := serve(srv, path).Body.Bytes()
		if !json.Valid(got) {
			t.Errorf("%s: body is not valid JSON: %s", name, got)
		}
		file := filepath.Join("testdata", "golden", name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s (%s): body differs from golden\n got: %s\nwant: %s", name, path, got, want)
		}
	}
}
