package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/query"
	"repro/internal/series"
	"repro/internal/server/api"
	"repro/internal/tsdb"
)

// serve runs one GET through the route table in process.
func serve(srv *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestNonFiniteValues is the regression for data-dependent corrupt
// responses: /write used to take NaN and ±Inf, after which /scan answered
// `"points":[{…},,]` and /aggregate an empty 200. Writes now refuse them
// with a 400 naming the line, and a value that is stored already (or an
// aggregate of finite values that overflows) goes out as null.
func TestNonFiniteValues(t *testing.T) {
	db := testDB(t)
	srv, base := startServer(t, Config{DB: db, CloseDB: true})
	defer srv.Close(context.Background())

	for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity", "1e999"} {
		resp, body := post(t, base+"/write", "text/plain", "s 1 1 1.5\ns 2 2 "+v+"\n")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "line 2") {
			t.Errorf("line value %s: status %d body %s, want 400 naming line 2", v, resp.StatusCode, body)
		}
		// encoding/json refuses these while decoding the body.
		resp, body = post(t, base+"/write", "application/json", `{"points":[{"series":"s","tg":1,"ta":1,"v":`+v+`}]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("JSON value %s: status %d body %s, want 400", v, resp.StatusCode, body)
		}
	}
	if resp, body := get(t, base+"/scan?series=s"); resp.StatusCode == http.StatusOK && !json.Valid([]byte(body)) {
		t.Errorf("scan after refused writes is not JSON: %s", body)
	}

	// Non-finite values that reached the store some other way.
	ls, err := series.NewLabels(map[string]string{"kind": "bad"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.CreateSeriesLabeled(ls)
	if err != nil {
		t.Fatal(err)
	}
	stored := []series.Point{
		{TG: 1, TA: 1, V: 1.5}, {TG: 2, TA: 2, V: math.NaN()}, {TG: 3, TA: 3, V: math.Inf(1)},
		{TG: 4, TA: 4, V: math.Inf(-1)}, {TG: 11, TA: 11, V: math.MaxFloat64}, {TG: 12, TA: 12, V: math.MaxFloat64},
	}
	if err := db.PutBatch(id, stored); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/scan?series=" + id,
		"/aggregate?series=" + id + "&width=10",
		"/query?match=kind%3Dbad",
		"/query?match=kind%3Dbad&width=10",
	} {
		resp, body := get(t, base+path)
		var v map[string]any
		if err := json.Unmarshal([]byte(body), &v); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("%s: status %d, unmarshal %v, body %q", path, resp.StatusCode, err, body)
		}
		if !strings.Contains(body, "null") {
			t.Errorf("%s: no null in %s", path, body)
		}
	}
}

// TestEncodeFailureIs500: a response that cannot be encoded is answered
// with a 500 and an api.ErrorResponse, not a 200 header over an empty or
// partial body.
func TestEncodeFailureIs500(t *testing.T) {
	srv, err := New(Config{DB: testDB(t), CloseDB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, api.StatsResponse{TotalWA: math.NaN()})
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(er.Error, "encode response") {
		t.Fatalf("status %d, unmarshal %v, body %q", rec.Code, err, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a body of %d bytes", got, rec.Body.Len())
	}
}

// querySeriesJSON is the encoding/json reference for respBuf.queryRow: the
// conversion to the wire struct the handler marshalled per row before the
// append encoders.
func querySeriesJSON(res *tsdb.SeriesResult) api.QuerySeriesJSON {
	row := api.QuerySeriesJSON{
		ID:     res.ID,
		Labels: res.Labels.Map(),
		Stats:  scanStatsJSON(res.Stats),
	}
	if res.Err != nil {
		row.Error = res.Err.Error()
		return row
	}
	if res.Buckets != nil {
		row.Buckets = make([]api.BucketJSON, len(res.Buckets))
		for i, b := range res.Buckets {
			row.Buckets[i] = bucketJSON(b)
		}
		row.Count = len(row.Buckets)
		return row
	}
	row.Points = make([]api.PointJSON, len(res.Points))
	for i, p := range res.Points {
		row.Points[i] = api.PointJSON{TG: p.TG, TA: p.TA, V: p.V}
	}
	row.Count = len(row.Points)
	return row
}

// TestQueryRowMatchesEncodingJSON covers the row shapes the goldens cannot
// reach on a healthy store: a failed series, one without labels, empty
// lists.
func TestQueryRowMatchesEncodingJSON(t *testing.T) {
	ls, err := series.NewLabels(map[string]string{"host": "h<1>", "metric": `m"2`})
	if err != nil {
		t.Fatal(err)
	}
	st := lsm.ScanStats{TablesTouched: 2, TablePoints: 7, MemPoints: 1, ResultPoints: 3, LevelTablesTouched: []int{1, 1}}
	pts := []series.Point{{TG: -1, TA: 2, V: 1e-7}, {TG: 5, TA: 6, V: 1e21}, {TG: 7, TA: 8, V: -0.5}}
	bks := []query.Bucket{{Start: -10, Count: 2, Min: -1, Max: 1e21, Sum: 3, First: 1, Last: 2}, {Start: 0, Count: 1, Min: 4, Max: 4, Sum: 4, First: 4, Last: 4}}
	for name, res := range map[string]tsdb.SeriesResult{
		"points":        {ID: "a", Labels: ls, Points: pts, Stats: st},
		"buckets":       {ID: "a", Labels: ls, Buckets: bks, Stats: st},
		"no labels":     {ID: "plain/é\u2028", Points: pts[:1]},
		"no points":     {ID: "a", Labels: ls, Points: []series.Point{}},
		"nil points":    {ID: "a", Labels: ls},
		"empty buckets": {ID: "a", Labels: ls, Buckets: []query.Bucket{}},
		"failed":        {ID: "a", Labels: ls, Err: errors.New(`series "a" dropped`)},
	} {
		rec := httptest.NewRecorder()
		rb := newRespBuf(rec, http.StatusOK)
		rb.queryRow(&res)
		rb.finish()
		want, err := json.Marshal(querySeriesJSON(&res))
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// scanDB holds one series of n in-order points, all in the memtable.
func scanDB(tb testing.TB, n int) *tsdb.DB {
	tb.Helper()
	db, err := tsdb.Open(tsdb.Config{
		Engine:     lsm.Config{Policy: lsm.Conventional, MemBudget: 2 * n},
		AutoCreate: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pts := make([]series.Point, n)
	for i := range pts {
		pts[i] = series.Point{TG: int64(i), TA: int64(i) + 3, V: 20 + float64(i%97)/8}
	}
	if err := db.PutBatch("s", pts); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestScanAllocsDoNotGrowWithPoints pins the point of the append encoders
// and the pooled buffer: a /scan allocates per request, not per point, and
// a scan long enough to stream (2 000 points ≈ 3 buffers) allocates no
// more than one that fits the buffer.
func TestScanAllocsDoNotGrowWithPoints(t *testing.T) {
	srv, err := New(Config{DB: scanDB(t, 2000), CloseDB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	body := make([]byte, 0, 1<<20) // shared, so the recorder's buffer never grows
	allocs := func(points int) float64 {
		path := fmt.Sprintf("/scan?series=s&lo=0&hi=%d", points-1)
		want := fmt.Sprintf(`],"count":%d,`, points)
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			rec.Body = bytes.NewBuffer(body[:0])
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
				t.Fatalf("%s: status %d, no %s in body", path, rec.Code, want)
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	t.Logf("allocs per /scan: %.0f at 100 points, %.0f at 2000 points", small, large)
	if large-small > 2 {
		t.Errorf("allocations grow with the point count: %.0f at 100 points, %.0f at 2000", small, large)
	}
}

// TestResponseFraming: a body that fits the pooled buffer carries its
// Content-Length; a longer one streams in chunks and still ends with the
// count and stats the client checks.
func TestResponseFraming(t *testing.T) {
	srv, base := startServer(t, Config{DB: scanDB(t, 5000), CloseDB: true})
	defer srv.Close(context.Background())

	resp, body := get(t, base+"/scan?series=s&lo=0&hi=99")
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("100-point scan: Content-Length %d, Transfer-Encoding %v, body %d bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	resp, body = get(t, base+"/scan?series=s")
	if len(body) < 3*respBufSize || resp.ContentLength != -1 {
		t.Errorf("5000-point scan: %d bytes with Content-Length %d, want a chunked body over 3 buffers", len(body), resp.ContentLength)
	}
	var sr api.ScanResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || sr.Count != 5000 || len(sr.Points) != 5000 || sr.Points[4999].TG != 4999 {
		t.Errorf("5000-point scan: unmarshal %v, count %d, %d points", err, sr.Count, len(sr.Points))
	}
	resp, body = get(t, base+"/aggregate?series=s&width=2")
	var ar api.AggregateResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil || len(ar.Buckets) != 2500 || resp.ContentLength != -1 {
		t.Errorf("2500-bucket aggregate: unmarshal %v, %d buckets, Content-Length %d", err, len(ar.Buckets), resp.ContentLength)
	}
}
