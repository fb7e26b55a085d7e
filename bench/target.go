package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/index"
	"repro/internal/tsdb"
)

// target executes one op against the store and checks the answer against
// what the generator's model predicts. The three implementations are the
// three places the front door can be cut: a real lsmd over loopback, the
// server's handler in process, and the tsdb calls the handler makes.
type target interface {
	do(o *op) error
}

// checkHTTP validates a response of the HTTP API against the op.
func checkHTTP(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", o.kind, status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opWrite:
		var wr struct{ Accepted int }
		if err := json.Unmarshal(body, &wr); err != nil || wr.Accepted != len(o.points) {
			return fmt.Errorf("write: accepted %d of %d: %s", wr.Accepted, len(o.points), bytes.TrimSpace(body))
		}
	case opScanRecent, opScanHist:
		// The streamed body ends `],"count":N,"stats":{...}}`; an "error"
		// key after the points marks a truncated answer. Looking only at
		// the tail keeps the generator's CPU share small.
		tail := body[max(0, len(body)-512):]
		i := bytes.LastIndex(tail, []byte(`],"count":`))
		if i < 0 || bytes.Contains(tail[i:], []byte(`"error"`)) {
			return fmt.Errorf("%s: malformed or truncated answer: %s", o.kind, tail)
		}
		rest := tail[i+len(`],"count":`):]
		n, err := strconv.Atoi(string(rest[:max(bytes.IndexByte(rest, ','), 0)]))
		if err != nil || n != o.wantPoints {
			return fmt.Errorf("%s %s [%d,%d]: got %d points, model has %d", o.kind, o.s.id, o.lo, o.hi, n, o.wantPoints)
		}
	case opAggRollup:
		var qr struct {
			Results []struct {
				Buckets []struct{ Count int64 }
				Stats   struct {
					RollupBucketsUsed int `json:"rollup_buckets_used"`
					RawPointsScanned  int `json:"raw_points_scanned"`
				}
				Error string
			}
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			return fmt.Errorf("agg_rollup: %v", err)
		}
		var points, buckets int
		for _, r := range qr.Results {
			if r.Error != "" {
				return fmt.Errorf("agg_rollup: series error %s", r.Error)
			}
			buckets += len(r.Buckets)
			for _, b := range r.Buckets {
				points += int(b.Count)
			}
			o.gotRollupBuckets += r.Stats.RollupBucketsUsed
			o.gotRawPoints += r.Stats.RawPointsScanned
		}
		return checkAgg(o, len(qr.Results), buckets, points)
	}
	return nil
}

// checkAgg compares the shape of an agg_rollup answer with the model.
func checkAgg(o *op, series, buckets, points int) error {
	if series != numMetrics || points != o.wantPoints || buckets != o.wantBuckets {
		return fmt.Errorf("agg_rollup host h%d [%d,%d]: got %d series, %d buckets, %d points; model has %d, %d, %d",
			o.host, o.lo, o.hi, series, buckets, points, numMetrics, o.wantBuckets, o.wantPoints)
	}
	return nil
}

// httpTarget drives a real lsmd over one keep-alive connection.
type httpTarget struct {
	base      string
	hc        *http.Client
	throttled int // 429 answers seen
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (t *httpTarget) close() { t.hc.CloseIdleConnections() }

func (t *httpTarget) do(o *op) error {
	for attempt := 0; ; attempt++ {
		var (
			resp *http.Response
			err  error
		)
		if o.kind == opWrite {
			resp, err = t.hc.Post(t.base+"/write", "text/plain", bytes.NewReader(o.body))
		} else {
			resp, err = t.hc.Get(t.base + o.path)
		}
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		// Backpressure is honoured once; a second refusal is a failed op.
		if resp.StatusCode == http.StatusTooManyRequests && attempt == 0 {
			t.throttled++
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(secs, 1)) * time.Second)
			continue
		}
		return checkHTTP(o, resp.StatusCode, body)
	}
}

// opPoints is how many points an op moves: written, or expected back.
func opPoints(o *op) int {
	if o.kind == opWrite {
		return len(o.points)
	}
	return o.wantPoints
}

// handlerTarget calls the server's route table in process: the same
// parsing, queueing and encoding as lsmd, without the socket. Only the
// traced run uses it; the span is recorded here, around the call.
type handlerTarget struct {
	h  http.Handler
	tr *tracer
}

func (t *handlerTarget) do(o *op) error {
	var req *http.Request
	if o.kind == opWrite {
		req = httptest.NewRequest(http.MethodPost, "/write", bytes.NewReader(o.body))
	} else {
		req = httptest.NewRequest(http.MethodGet, o.path, nil)
	}
	rec := httptest.NewRecorder()
	r := t.tr.request()
	h := t.tr.layer("server.handle", r)
	t.h.ServeHTTP(rec, req)
	t.tr.endLayer(h, opPoints(o))
	err := checkHTTP(o, rec.Code, rec.Body.Bytes())
	t.tr.end(r, 0)
	return err
}

// dbTarget applies the op as the tsdb calls the handlers make.
type dbTarget struct {
	db *tsdb.DB
	tr *tracer
}

func (t *dbTarget) do(o *op) error {
	r := t.tr.request()
	defer t.tr.end(r, 0)
	switch o.kind {
	case opWrite:
		l := t.tr.layer("tsdb.put_batch", r)
		err := t.db.PutBatch(o.s.id, o.points)
		t.tr.endLayer(l, len(o.points))
		return err
	case opScanRecent, opScanHist:
		l := t.tr.layer("tsdb.scan", r)
		pts, _, err := t.db.Scan(o.s.id, o.lo, o.hi)
		t.tr.endLayer(l, len(pts))
		if err == nil && len(pts) != o.wantPoints {
			err = fmt.Errorf("%s %s [%d,%d]: got %d points, model has %d", o.kind, o.s.id, o.lo, o.hi, len(pts), o.wantPoints)
		}
		return err
	default:
		ms := []index.Matcher{index.MustMatcher("host", index.OpEq, "h"+strconv.Itoa(o.host))}
		l := t.tr.layer("tsdb.query_match", r)
		res, _, err := t.db.QueryMatch(ms, tsdb.QueryOptions{Lo: o.lo, Hi: o.hi, BucketWidth: aggWidth})
		t.tr.endLayer(l, o.wantPoints)
		if err != nil {
			return err
		}
		var points, buckets int
		for _, r := range res {
			if r.Err != nil {
				return r.Err
			}
			buckets += len(r.Buckets)
			for _, b := range r.Buckets {
				points += int(b.Count)
			}
			o.gotRollupBuckets += r.Stats.RollupBuckets
			o.gotRawPoints += r.Stats.ResultPoints
		}
		return checkAgg(o, len(res), buckets, points)
	}
}
